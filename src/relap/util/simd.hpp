#pragma once

/// \file simd.hpp
/// Width-generic SIMD lane abstraction for the batched evaluation and
/// simulation kernels.
///
/// A "lane batch" is a fixed-width `W` bundle of doubles (`DoubleLanes`) or
/// uint64 words (`UintLanes`) with aligned storage. Each lane carries one
/// independent candidate/trial; ops are strictly *vertical* (elementwise),
/// never horizontal, so lane l's value stream is bit-identical to running
/// the scalar code on lane l alone. That is the whole bit-exactness
/// contract: IEEE-754 add/sub/mul/div/min/max/compare are deterministic per
/// element, and the build disables FP contraction (`-ffp-contract=off` in
/// CMakeLists.txt) so no fused multiply-adds can reassociate a Kahan update.
///
/// Dispatch is compile-time: every op is a generic fixed-trip-count loop
/// with an `if constexpr` AVX2 (4-double blocks) fast path when the TU is
/// compiled for that ISA; every other target, aarch64 included, runs the
/// generic loops. Defining `RELAP_SIMD_FORCE_SCALAR` (CMake option of the
/// same name) compiles the portable fallback even under AVX2 — CI builds
/// both and the results must be bit-identical, which the scalar-walk tests
/// of the drivers pin.
///
/// uint64 multiply and uint64->double conversion have no single AVX2
/// instruction, but both are specialized anyway: the low-64 product
/// decomposes exactly into three 32x32 `vpmuludq` partials, and the unit
/// conversion of a 53-bit value splits exactly into magic-number converts of
/// its low-32/high-21 halves. Keeping these in the SIMD domain matters more
/// than the op counts suggest — the splitmix lane mixer alternates multiplies
/// with xor-shifts, and a scalar multiply in the middle forces a GPR
/// round-trip per lane per step. Both forms are exact (no rounding anywhere),
/// so they are bit-identical to the generic loops by construction.
///
/// Width: each driver instantiates its kernel once, at `kDefaultLaneWidth`,
/// so changing the width is a one-constant change. `LaneEvalBatch` and
/// `latency_assignment_lanes` are also instantiated at W = 1 and 4
/// (mapping_lanes.cpp / latency.cpp), where the kernel tests pin them
/// against the scalar oracle. Adding an ISA: add an `if constexpr` block per
/// op below, guarded by a detection macro — the op must keep IEEE semantics
/// (no FMA, no reassociation) and the same NaN/tie behavior as the generic
/// loop, or the scalar-oracle tests will catch it.

#include <cstddef>
#include <cstdint>

#if !defined(RELAP_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define RELAP_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace relap::util::simd {

/// Lane width of every driver's batched kernel (the exhaustive
/// enumerators' `LaneEvalBatch` and `latency_assignment_lanes`, and the
/// Monte-Carlo Bernoulli trials).
inline constexpr std::size_t kDefaultLaneWidth = 8;

/// Name of the ISA the lane ops were compiled for ("avx2" or "scalar") —
/// recorded in bench metadata.
[[nodiscard]] const char* isa_name();

namespace detail {
constexpr std::size_t alignment_for(std::size_t width) {
  if (width % 4 == 0) return 32;
  if (width % 2 == 0) return 16;
  return 8;
}
}  // namespace detail

/// W doubles, one independent candidate/trial per lane.
template <std::size_t W>
struct DoubleLanes {
  alignas(detail::alignment_for(W)) double v[W];
};

/// W uint64 words: processor ids, hash states, or masks. A mask lane is
/// all-ones (selected) or all-zeros (rejected) — nothing in between.
template <std::size_t W>
struct UintLanes {
  alignas(detail::alignment_for(W)) std::uint64_t v[W];
};

template <std::size_t W>
[[nodiscard]] inline DoubleLanes<W> broadcast(double x) {
  DoubleLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = x;
  return out;
}

template <std::size_t W>
[[nodiscard]] inline UintLanes<W> broadcast_u(std::uint64_t x) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = x;
  return out;
}

/// Loads W contiguous doubles (no alignment requirement on `src`).
template <std::size_t W>
[[nodiscard]] inline DoubleLanes<W> load(const double* src) {
  DoubleLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = src[i];
  return out;
}

/// Loads W contiguous uint64 words.
template <std::size_t W>
[[nodiscard]] inline UintLanes<W> load_u(const std::uint64_t* src) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = src[i];
  return out;
}

#if defined(RELAP_SIMD_HAVE_AVX2)
#define RELAP_SIMD_DOUBLE_BINOP(name, expr, intrinsic)                               \
  template <std::size_t W>                                                           \
  [[nodiscard]] inline DoubleLanes<W> name(const DoubleLanes<W>& a,                  \
                                           const DoubleLanes<W>& b) {                \
    DoubleLanes<W> out;                                                              \
    if constexpr (W % 4 == 0) {                                                      \
      for (std::size_t i = 0; i < W; i += 4) {                                       \
        _mm256_store_pd(out.v + i,                                                   \
                        intrinsic(_mm256_load_pd(a.v + i), _mm256_load_pd(b.v + i))); \
      }                                                                              \
    } else {                                                                         \
      for (std::size_t i = 0; i < W; ++i) out.v[i] = (expr);                         \
    }                                                                                \
    return out;                                                                      \
  }
#else
#define RELAP_SIMD_DOUBLE_BINOP(name, expr, intrinsic)              \
  template <std::size_t W>                                          \
  [[nodiscard]] inline DoubleLanes<W> name(const DoubleLanes<W>& a, \
                                           const DoubleLanes<W>& b) { \
    DoubleLanes<W> out;                                             \
    for (std::size_t i = 0; i < W; ++i) out.v[i] = (expr);          \
    return out;                                                     \
  }
#endif

RELAP_SIMD_DOUBLE_BINOP(add, a.v[i] + b.v[i], _mm256_add_pd)
RELAP_SIMD_DOUBLE_BINOP(sub, a.v[i] - b.v[i], _mm256_sub_pd)
RELAP_SIMD_DOUBLE_BINOP(mul, a.v[i] * b.v[i], _mm256_mul_pd)
RELAP_SIMD_DOUBLE_BINOP(div, a.v[i] / b.v[i], _mm256_div_pd)

/// min(a, b): a where a < b, else b (ties and NaN pick b — the x86 MINPD /
/// C ternary semantics). `std::min(acc, x)` is mirrored by `min(x, acc)`.
RELAP_SIMD_DOUBLE_BINOP(min, a.v[i] < b.v[i] ? a.v[i] : b.v[i], _mm256_min_pd)

/// max(a, b): a where a > b, else b (ties and NaN pick b). `std::max(acc, x)`
/// is mirrored by `max(x, acc)`.
RELAP_SIMD_DOUBLE_BINOP(max, a.v[i] > b.v[i] ? a.v[i] : b.v[i], _mm256_max_pd)

#undef RELAP_SIMD_DOUBLE_BINOP

/// a < b as a mask (ordered, quiet: NaN compares false).
template <std::size_t W>
[[nodiscard]] inline UintLanes<W> less(const DoubleLanes<W>& a, const DoubleLanes<W>& b) {
  UintLanes<W> out;
#if defined(RELAP_SIMD_HAVE_AVX2)
  if constexpr (W % 4 == 0) {
    for (std::size_t i = 0; i < W; i += 4) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(out.v + i),
                         _mm256_castpd_si256(_mm256_cmp_pd(_mm256_load_pd(a.v + i),
                                                           _mm256_load_pd(b.v + i), _CMP_LT_OQ)));
    }
    return out;
  }
#endif
  for (std::size_t i = 0; i < W; ++i) {
    out.v[i] = a.v[i] < b.v[i] ? ~std::uint64_t{0} : std::uint64_t{0};
  }
  return out;
}

/// mask ? a : b per lane. Preconditions: each mask lane is all-ones or
/// all-zeros (as produced by `less` / the integer compares below).
template <std::size_t W>
[[nodiscard]] inline DoubleLanes<W> select(const UintLanes<W>& mask, const DoubleLanes<W>& a,
                                           const DoubleLanes<W>& b) {
  DoubleLanes<W> out;
#if defined(RELAP_SIMD_HAVE_AVX2)
  if constexpr (W % 4 == 0) {
    for (std::size_t i = 0; i < W; i += 4) {
      const __m256d mask_pd =
          _mm256_castsi256_pd(_mm256_load_si256(reinterpret_cast<const __m256i*>(mask.v + i)));
      _mm256_store_pd(out.v + i,
                      _mm256_blendv_pd(_mm256_load_pd(b.v + i), _mm256_load_pd(a.v + i), mask_pd));
    }
    return out;
  }
#endif
  for (std::size_t i = 0; i < W; ++i) out.v[i] = mask.v[i] ? a.v[i] : b.v[i];
  return out;
}

// --- uint64 lanes: plain generic loops (see the file comment). -------------

template <std::size_t W>
[[nodiscard]] inline UintLanes<W> add_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = a.v[i] + b.v[i];
  return out;
}

/// Low 64 bits of the product (the wrap-around splitmix64 multiply).
/// AVX2 path: a*b mod 2^64 = a_lo*b_lo + ((a_lo*b_hi + a_hi*b_lo) << 32),
/// three `vpmuludq` 32x32->64 partials — exact, so identical to the scalar
/// wrap-around multiply.
template <std::size_t W>
[[nodiscard]] inline UintLanes<W> mul_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
#if defined(RELAP_SIMD_HAVE_AVX2)
  if constexpr (W % 4 == 0) {
    for (std::size_t i = 0; i < W; i += 4) {
      const __m256i va = _mm256_load_si256(reinterpret_cast<const __m256i*>(a.v + i));
      const __m256i vb = _mm256_load_si256(reinterpret_cast<const __m256i*>(b.v + i));
      const __m256i low = _mm256_mul_epu32(va, vb);
      const __m256i cross =
          _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(va, 32), vb),
                           _mm256_mul_epu32(va, _mm256_srli_epi64(vb, 32)));
      _mm256_store_si256(reinterpret_cast<__m256i*>(out.v + i),
                         _mm256_add_epi64(low, _mm256_slli_epi64(cross, 32)));
    }
    return out;
  }
#endif
  for (std::size_t i = 0; i < W; ++i) out.v[i] = a.v[i] * b.v[i];
  return out;
}

template <std::size_t W>
[[nodiscard]] inline UintLanes<W> xor_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = a.v[i] ^ b.v[i];
  return out;
}

template <std::size_t W>
[[nodiscard]] inline UintLanes<W> and_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = a.v[i] & b.v[i];
  return out;
}

template <std::size_t W>
[[nodiscard]] inline UintLanes<W> or_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = a.v[i] | b.v[i];
  return out;
}

template <int Shift, std::size_t W>
[[nodiscard]] inline UintLanes<W> shr_u(const UintLanes<W>& a) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = a.v[i] >> Shift;
  return out;
}

/// a < b (unsigned) as a mask. Used for the `replica < group_size` lane masks.
template <std::size_t W>
[[nodiscard]] inline UintLanes<W> less_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) {
    out.v[i] = a.v[i] < b.v[i] ? ~std::uint64_t{0} : std::uint64_t{0};
  }
  return out;
}

/// a == b as a mask. Used for the "is this the last interval" lane masks.
template <std::size_t W>
[[nodiscard]] inline UintLanes<W> equal_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) {
    out.v[i] = a.v[i] == b.v[i] ? ~std::uint64_t{0} : std::uint64_t{0};
  }
  return out;
}

/// a != b as a mask. Used for the boundary-transfer masks of the general
/// mapping kernel (no transfer when consecutive stages share a processor).
template <std::size_t W>
[[nodiscard]] inline UintLanes<W> not_equal_u(const UintLanes<W>& a, const UintLanes<W>& b) {
  UintLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) {
    out.v[i] = a.v[i] != b.v[i] ? ~std::uint64_t{0} : std::uint64_t{0};
  }
  return out;
}

/// table[idx] per lane. Preconditions: every lane's index is in bounds —
/// including masked-out lanes, which is why the staging buffers keep stale
/// (but valid) ids instead of sentinels.
template <std::size_t W>
[[nodiscard]] inline DoubleLanes<W> gather(const double* table, const UintLanes<W>& idx) {
  DoubleLanes<W> out;
#if defined(RELAP_SIMD_HAVE_AVX2)
  // VGATHERQPD loads exactly table[idx] per lane — same IEEE doubles as the
  // scalar loop, so bit-exactness is preserved by construction.
  if constexpr (W % 4 == 0) {
    for (std::size_t i = 0; i < W; i += 4) {
      const __m256i vidx = _mm256_load_si256(reinterpret_cast<const __m256i*>(idx.v + i));
      _mm256_store_pd(out.v + i, _mm256_i64gather_pd(table, vidx, 8));
    }
    return out;
  }
#endif
  for (std::size_t i = 0; i < W; ++i) out.v[i] = table[idx.v[i]];
  return out;
}

/// table[row * stride + col] per lane (the flat bandwidth-matrix gather).
template <std::size_t W>
[[nodiscard]] inline DoubleLanes<W> gather2(const double* table, const UintLanes<W>& row,
                                            const UintLanes<W>& col, std::uint64_t stride) {
  UintLanes<W> idx;
  for (std::size_t i = 0; i < W; ++i) idx.v[i] = row.v[i] * stride + col.v[i];
  return gather<W>(table, idx);
}

/// Number of set lanes in a mask batch. Preconditions: every lane is
/// all-ones or all-zeros. The AVX2 path folds each 4-lane block to a sign
/// bitmask and popcounts it; both paths count the same lanes, so the result
/// is width- and ISA-invariant.
template <std::size_t W>
[[nodiscard]] inline std::size_t count_set_lanes(const UintLanes<W>& mask) {
#if defined(RELAP_SIMD_HAVE_AVX2)
  if constexpr (W % 4 == 0) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < W; i += 4) {
      const __m256d block =
          _mm256_castsi256_pd(_mm256_load_si256(reinterpret_cast<const __m256i*>(mask.v + i)));
      n += static_cast<std::size_t>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_pd(block))));
    }
    return n;
  }
#endif
  std::size_t n = 0;
  for (std::size_t i = 0; i < W; ++i) n += mask.v[i] & 1;
  return n;
}

/// static_cast<double>(z) per lane — exact for the small counts (group
/// sizes) it is used on, hence bit-identical to the scalar cast.
template <std::size_t W>
[[nodiscard]] inline DoubleLanes<W> to_double_lanes(const UintLanes<W>& z) {
  DoubleLanes<W> out;
  for (std::size_t i = 0; i < W; ++i) out.v[i] = static_cast<double>(z.v[i]);
  return out;
}

/// (z >> 11) * 2^-53 per lane: the canonical uint64 -> [0,1) conversion,
/// bit-identical to `Rng::uniform`'s scalar form.
/// AVX2 path (no packed uint64->double before AVX-512): x = z >> 11 has 53
/// bits, so split x = hi*2^32 + lo with lo < 2^32, hi < 2^21. OR-ing a value
/// below 2^52 into the mantissa of the double 2^52 and subtracting 2^52
/// converts it exactly; hi*2^32 (a multiple of 2^32 below 2^53) and the
/// recombining add (disjoint bit ranges, sum < 2^53) are also exact, as is
/// the final power-of-two scale — every step rounds nothing, so the result
/// equals the scalar cast-and-scale bit for bit.
template <std::size_t W>
[[nodiscard]] inline DoubleLanes<W> to_unit_double_lanes(const UintLanes<W>& z) {
  DoubleLanes<W> out;
#if defined(RELAP_SIMD_HAVE_AVX2)
  if constexpr (W % 4 == 0) {
    const __m256i magic_bits = _mm256_set1_epi64x(0x4330000000000000LL);  // double 2^52
    const __m256d magic = _mm256_set1_pd(0x1.0p52);
    const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
    for (std::size_t i = 0; i < W; i += 4) {
      const __m256i x =
          _mm256_srli_epi64(_mm256_load_si256(reinterpret_cast<const __m256i*>(z.v + i)), 11);
      const __m256d lo = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(x, low32), magic_bits)), magic);
      const __m256d hi = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(x, 32), magic_bits)), magic);
      const __m256d value = _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p32)), lo);
      _mm256_store_pd(out.v + i, _mm256_mul_pd(value, _mm256_set1_pd(0x1.0p-53)));
    }
    return out;
  }
#endif
  for (std::size_t i = 0; i < W; ++i) {
    out.v[i] = static_cast<double>(z.v[i] >> 11) * 0x1.0p-53;
  }
  return out;
}

/// W independent Kahan accumulators, one per lane. `add` applies the exact
/// scalar `util::KahanSum::add` update to every lane; `add_masked` applies
/// it only where the mask is set, leaving rejected lanes' sum *and*
/// compensation untouched (Kahan add of 0 is not the identity when the
/// compensation is nonzero, so masking must select both words).
template <std::size_t W>
class KahanLanes {
 public:
  KahanLanes() : sum_(broadcast<W>(0.0)), compensation_(broadcast<W>(0.0)) {}

  void add(const DoubleLanes<W>& x) {
    const DoubleLanes<W> y = sub(x, compensation_);
    const DoubleLanes<W> t = simd::add(sum_, y);
    compensation_ = sub(sub(t, sum_), y);
    sum_ = t;
  }

  void add_masked(const DoubleLanes<W>& x, const UintLanes<W>& mask) {
    const DoubleLanes<W> y = sub(x, compensation_);
    const DoubleLanes<W> t = simd::add(sum_, y);
    compensation_ = select(mask, sub(sub(t, sum_), y), compensation_);
    sum_ = select(mask, t, sum_);
  }

  [[nodiscard]] const DoubleLanes<W>& value() const { return sum_; }

 private:
  DoubleLanes<W> sum_;
  DoubleLanes<W> compensation_;
};

}  // namespace relap::util::simd
