// Tests for util/simd.hpp — the width-generic lane abstraction under the
// batched kernels. The contract pinned here is *bit-exactness*: every lane
// op applied to lane l must produce exactly the bits the scalar expression
// produces on lane l alone, including the sign of zero, tie/NaN selection
// of min/max, mask semantics of select, and the two-word (sum +
// compensation) state of the masked Kahan accumulator. These hold for the
// generic fallback and the AVX2 fast path alike; CI compiles both.

#include "relap/util/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "relap/util/rng.hpp"
#include "relap/util/stats.hpp"

namespace relap::util::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Exact bit equality, so -0.0 vs +0.0 and NaN payloads are distinguished.
void expect_same_bits(double actual, double expected, const char* op, std::size_t lane) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
      << op << " lane " << lane << ": " << actual << " vs " << expected;
}

template <std::size_t W>
void check_double_binops(std::uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    DoubleLanes<W> a;
    DoubleLanes<W> b;
    for (std::size_t l = 0; l < W; ++l) {
      // Magnitude-spread operands, occasionally special values.
      a.v[l] = (rng.uniform(-1.0, 1.0)) * std::pow(10.0, rng.uniform(-12.0, 12.0));
      b.v[l] = (rng.uniform(-1.0, 1.0)) * std::pow(10.0, rng.uniform(-12.0, 12.0));
      if (rng.bernoulli(0.05)) a.v[l] = rng.bernoulli(0.5) ? 0.0 : -0.0;
      if (rng.bernoulli(0.05)) b.v[l] = rng.bernoulli(0.5) ? kInf : -kInf;
      if (rng.bernoulli(0.02)) b.v[l] = a.v[l];  // exercise ties
    }
    const DoubleLanes<W> sum = add(a, b);
    const DoubleLanes<W> dif = sub(a, b);
    const DoubleLanes<W> prd = mul(a, b);
    const DoubleLanes<W> quo = div(a, b);
    const DoubleLanes<W> mn = min(a, b);
    const DoubleLanes<W> mx = max(a, b);
    const UintLanes<W> lt = less(a, b);
    for (std::size_t l = 0; l < W; ++l) {
      expect_same_bits(sum.v[l], a.v[l] + b.v[l], "add", l);
      expect_same_bits(dif.v[l], a.v[l] - b.v[l], "sub", l);
      expect_same_bits(prd.v[l], a.v[l] * b.v[l], "mul", l);
      expect_same_bits(quo.v[l], a.v[l] / b.v[l], "div", l);
      expect_same_bits(mn.v[l], a.v[l] < b.v[l] ? a.v[l] : b.v[l], "min", l);
      expect_same_bits(mx.v[l], a.v[l] > b.v[l] ? a.v[l] : b.v[l], "max", l);
      EXPECT_EQ(lt.v[l], a.v[l] < b.v[l] ? ~std::uint64_t{0} : std::uint64_t{0})
          << "less lane " << l;
    }
  }
}

TEST(SimdLanes, DoubleBinopsMatchScalarBitForBit) {
  check_double_binops<1>(11);
  check_double_binops<4>(12);
  check_double_binops<8>(13);
}

TEST(SimdLanes, MinMaxTieAndNaNSemantics) {
  // min/max take the SECOND operand on ties and NaN (MINPD/MAXPD + the C
  // ternary agree) — the kernels rely on this to mirror std::min(acc, x) as
  // min(x, acc) and std::max(acc, x) as max(x, acc).
  DoubleLanes<4> a{{+0.0, -0.0, kNaN, 1.0}};
  DoubleLanes<4> b{{-0.0, +0.0, 1.0, kNaN}};
  const DoubleLanes<4> mn = min(a, b);
  const DoubleLanes<4> mx = max(a, b);
  expect_same_bits(mn.v[0], -0.0, "min(+0,-0)", 0);  // +0 < -0 is false -> b
  expect_same_bits(mn.v[1], +0.0, "min(-0,+0)", 1);
  expect_same_bits(mn.v[2], 1.0, "min(NaN,1)", 2);  // NaN < x is false -> b
  EXPECT_TRUE(std::isnan(mn.v[3])) << "min(1,NaN) must pick b = NaN";
  expect_same_bits(mx.v[0], -0.0, "max(+0,-0)", 0);
  expect_same_bits(mx.v[1], +0.0, "max(-0,+0)", 1);
  expect_same_bits(mx.v[2], 1.0, "max(NaN,1)", 2);
  EXPECT_TRUE(std::isnan(mx.v[3])) << "max(1,NaN) must pick b = NaN";

  // The std::min/std::max operand-order mirror, on ties of distinct bits.
  const double lo = +0.0;
  const double x = -0.0;
  expect_same_bits(min(broadcast<1>(x), broadcast<1>(lo)).v[0], std::min(lo, x), "mirror-min", 0);
  expect_same_bits(max(broadcast<1>(x), broadcast<1>(lo)).v[0], std::max(lo, x), "mirror-max", 0);
}

TEST(SimdLanes, SelectPicksPerLane) {
  DoubleLanes<4> a{{1.0, 2.0, 3.0, 4.0}};
  DoubleLanes<4> b{{-1.0, -2.0, -3.0, -4.0}};
  UintLanes<4> mask{{~std::uint64_t{0}, 0, ~std::uint64_t{0}, 0}};
  const DoubleLanes<4> out = select(mask, a, b);
  expect_same_bits(out.v[0], 1.0, "select", 0);
  expect_same_bits(out.v[1], -2.0, "select", 1);
  expect_same_bits(out.v[2], 3.0, "select", 2);
  expect_same_bits(out.v[3], -4.0, "select", 3);
}

TEST(SimdLanes, UintOpsAndGathersMatchScalar) {
  util::Rng rng(21);
  std::vector<double> table(64);
  for (double& x : table) x = rng.uniform(0.5, 10.0);
  constexpr std::size_t W = 8;
  for (int i = 0; i < 100; ++i) {
    UintLanes<W> a;
    UintLanes<W> b;
    for (std::size_t l = 0; l < W; ++l) {
      a.v[l] = rng();
      b.v[l] = rng.bernoulli(0.1) ? a.v[l] : rng();
    }
    for (std::size_t l = 0; l < W; ++l) {
      EXPECT_EQ(add_u(a, b).v[l], a.v[l] + b.v[l]);
      EXPECT_EQ(mul_u(a, b).v[l], a.v[l] * b.v[l]);
      EXPECT_EQ(xor_u(a, b).v[l], a.v[l] ^ b.v[l]);
      EXPECT_EQ(and_u(a, b).v[l], a.v[l] & b.v[l]);
      EXPECT_EQ(or_u(a, b).v[l], a.v[l] | b.v[l]);
      EXPECT_EQ(shr_u<27>(a).v[l], a.v[l] >> 27);
      EXPECT_EQ(less_u(a, b).v[l], a.v[l] < b.v[l] ? ~std::uint64_t{0} : 0u);
      EXPECT_EQ(equal_u(a, b).v[l], a.v[l] == b.v[l] ? ~std::uint64_t{0} : 0u);
      EXPECT_EQ(not_equal_u(a, b).v[l], a.v[l] != b.v[l] ? ~std::uint64_t{0} : 0u);
      expect_same_bits(to_unit_double_lanes(a).v[l],
                       static_cast<double>(a.v[l] >> 11) * 0x1.0p-53, "to_unit", l);
    }
    UintLanes<W> row;
    UintLanes<W> col;
    for (std::size_t l = 0; l < W; ++l) {
      row.v[l] = a.v[l] % 8;
      col.v[l] = b.v[l] % 8;
    }
    const DoubleLanes<W> g1 = gather(table.data(), row);
    const DoubleLanes<W> g2 = gather2(table.data(), row, col, 8);
    for (std::size_t l = 0; l < W; ++l) {
      expect_same_bits(g1.v[l], table[row.v[l]], "gather", l);
      expect_same_bits(g2.v[l], table[row.v[l] * 8 + col.v[l]], "gather2", l);
    }
  }
}

TEST(SimdLanes, CounterHashLanesMatchScalar) {
  // The Monte-Carlo kernels build counter_hash(seed, c) out of lane ops:
  // mix(seed + (c + 1) * gamma) with the splitmix64 finalizer applied per
  // lane. Reassemble it here from the public ops and pin bit equality.
  const std::uint64_t seed = 0xFEEDFACE12345ULL;
  constexpr std::size_t W = 8;
  for (std::uint64_t base = 0; base < 4096; base += W) {
    UintLanes<W> z;
    for (std::size_t l = 0; l < W; ++l) {
      z.v[l] = seed + (base + l + 1) * util::kSplitMix64Gamma;
    }
    // Finalizer via the generic lane ops, mirroring util::splitmix64_mix.
    z = xor_u(z, shr_u<30>(z));
    z = mul_u(z, broadcast_u<W>(0xBF58476D1CE4E5B9ULL));
    z = xor_u(z, shr_u<27>(z));
    z = mul_u(z, broadcast_u<W>(0x94D049BB133111EBULL));
    z = xor_u(z, shr_u<31>(z));
    const DoubleLanes<W> unit = to_unit_double_lanes(z);
    for (std::size_t l = 0; l < W; ++l) {
      EXPECT_EQ(z.v[l], util::counter_hash(seed, base + l)) << "counter " << base + l;
      expect_same_bits(unit.v[l], util::to_unit_double(util::counter_hash(seed, base + l)),
                       "unit", l);
    }
  }
}

template <std::size_t W>
void check_masked_kahan(std::uint64_t seed) {
  // One scalar KahanSum per lane, fed only the terms whose mask is set,
  // must match KahanLanes::add_masked bit for bit — including the skipped
  // steps, where the lane's compensation must pass through untouched.
  util::Rng rng(seed);
  KahanLanes<W> lanes;
  util::KahanSum scalar[W];
  for (int step = 0; step < 500; ++step) {
    DoubleLanes<W> x;
    UintLanes<W> mask;
    for (std::size_t l = 0; l < W; ++l) {
      x.v[l] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-9.0, 9.0));
      mask.v[l] = rng.bernoulli(0.6) ? ~std::uint64_t{0} : 0;
      if (mask.v[l] != 0) scalar[l].add(x.v[l]);
    }
    lanes.add_masked(x, mask);
    for (std::size_t l = 0; l < W; ++l) {
      expect_same_bits(lanes.value().v[l], scalar[l].value(), "kahan", l);
    }
  }
}

TEST(SimdLanes, MaskedKahanMatchesScalarSkip) {
  check_masked_kahan<1>(31);
  check_masked_kahan<4>(32);
  check_masked_kahan<8>(33);
}

TEST(SimdLanes, UnmaskedKahanMatchesScalar) {
  util::Rng rng(41);
  KahanLanes<8> lanes;
  util::KahanSum scalar[8];
  for (int step = 0; step < 500; ++step) {
    DoubleLanes<8> x;
    for (std::size_t l = 0; l < 8; ++l) {
      x.v[l] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-9.0, 9.0));
      scalar[l].add(x.v[l]);
    }
    lanes.add(x);
    for (std::size_t l = 0; l < 8; ++l) {
      expect_same_bits(lanes.value().v[l], scalar[l].value(), "kahan-unmasked", l);
    }
  }
}

TEST(SimdLanes, IsaNameIsOneOfTheKnownBackends) {
  const std::string isa = isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "scalar") << isa;
}

}  // namespace
}  // namespace relap::util::simd
