#pragma once

/// \file canonical.hpp
/// Instance canonicalization: validation, deterministic processor
/// relabeling and exact scale normalization.
///
/// The broker's memo cache only pays off if near-identical requests collide
/// on one key. Two presentations of the same problem can differ in three
/// harmless ways, and canonicalization quotients all of them out:
///
///  * **Stage record order.** Stage records carry semantic positions; the
///    canonical form stores them in position order.
///  * **Processor labels.** Processor identity is pure naming. The canonical
///    form orders processors by a label-independent signature over their
///    normalized compute/transfer/failure columns — (speed, failure prob,
///    P_in/P_out bandwidths), refined with link-matrix neighborhoods
///    (Weisfeiler-Leman style color refinement) on fully heterogeneous
///    platforms. Signature ties that refinement cannot split fall back to
///    presentation order: for homogeneous-link platforms such processors are
///    genuinely interchangeable (identical canonical bytes either way); on
///    heterogeneous links a tie can make two presentations canonicalize
///    differently, which costs a cache hit but never correctness.
///  * **Units.** Work, data and time units are free parameters. Scales are
///    extracted as exact powers of two (the largest 2^k <= max of each
///    column), so normalization divides by powers of two — bit-exact, no
///    rounding anywhere. Latencies denormalize by one exact multiplication,
///    which is why a cache hit reproduces a cold solve bit for bit, and why
///    power-of-two rescalings of an instance share a canonical form. General
///    rescalings still solve correctly; they just key separately.
///
/// The canonical form is hashed (FNV-1a over the io key-byte serialization)
/// into the cache key; collisions are resolved by full byte equality in
/// service/cache.hpp.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/service/request.hpp"

namespace relap::service {

/// A validated, canonicalized instance plus everything needed to map
/// canonical-form results back to the caller's labeling and units.
struct CanonicalInstance {
  /// Canonical pipeline: stages in position order, work/data normalized.
  pipeline::Pipeline pipeline;
  /// Canonical platform: processors in signature order, columns normalized.
  platform::Platform platform;
  /// Latency conversion: latency_canonical = latency_caller * time_scale.
  /// Always an exact power of two, so the conversion is bit-exact both ways.
  double time_scale = 1.0;
  /// canonical_to_caller[c] = caller storage index of canonical processor c.
  std::vector<std::size_t> canonical_to_caller;
  /// io::append_instance_key_bytes of the canonical form.
  std::string key_bytes;
  /// FNV-1a of `key_bytes` — equal across relabelings and power-of-two
  /// rescalings of one instance.
  std::uint64_t key_hash = 0;
};

/// An instance prepared once for any number of solves (`Broker::prepare`;
/// a session prepares each upload): the record counts admission's size caps
/// read, and the canonical form — or why there is none. An instance over the
/// broker's caps is never canonicalized and carries the "oversized" error;
/// one that fails validation carries canonicalize's "malformed" error.
/// Admission reports either in its fixed order (broker.hpp), so a solve of a
/// prepared instance answers exactly what a solve of the raw records would.
struct PreparedInstance {
  std::size_t stages = 0;
  std::size_t processors = 0;
  util::Expected<CanonicalInstance> canonical;
};

/// Validates `instance` and produces its canonical form. Malformed input
/// (empty pipeline, zero-processor platform, bad position permutation,
/// ragged link rows, columns the model's `check`s refuse before or after
/// normalization, or latencies that could overflow in canonical or caller
/// units, `mapping::check_latency_range`) yields a structured "malformed"
/// error — never an assert.
[[nodiscard]] util::Expected<CanonicalInstance> canonicalize(const InstanceData& instance);

/// Maps a front solved on the canonical form back to the caller's labeling
/// and units: latencies divide by `time_scale` (exact), failure
/// probabilities are dimensionless, interval boundaries are already in
/// semantic stage positions, and replica groups map through
/// `canonical_to_caller` (re-sorted ascending in caller ids).
[[nodiscard]] std::vector<algorithms::ParetoSolution> denormalize_front(
    const CanonicalInstance& canonical, std::span<const algorithms::ParetoSolution> front);

}  // namespace relap::service
