#include "relap/util/simd.hpp"

namespace relap::util::simd {

const char* isa_name() {
#if defined(RELAP_SIMD_HAVE_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

}  // namespace relap::util::simd
