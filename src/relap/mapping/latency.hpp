#pragma once

/// \file latency.hpp
/// Latency (response-time) evaluators for the paper's cost model.
///
/// The latency of a mapping is the worst-case time elapsed between the
/// moment a data set leaves P_in and the moment its result reaches P_out,
/// under the one-port communication model. For a replicated interval the
/// worst case is when the first k_j - 1 replicas to receive their (serialized)
/// input fail during execution, so all k_j input communications must be
/// counted; a standard consensus protocol then lets one surviving replica
/// perform the outgoing communications.
///
/// Two closed forms from the paper:
///  * Equation (1) — platforms with identical links (Fully Homogeneous and
///    Communication Homogeneous):
///        T = sum_j { k_j * delta_{d_j - 1} / b
///                    + (sum_{i in I_j} w_i) / min_{u in alloc(j)} s_u }
///            + delta_n / b
///  * Equation (2) — Fully Heterogeneous platforms:
///        T = sum_{u in alloc(1)} delta_0 / b_{in,u}
///            + sum_j max_{u in alloc(j)} { (sum_{i in I_j} w_i) / s_u
///                    + sum_{v in alloc(j+1)} delta_{e_j} / b_{u,v} }
///    where alloc(p+1) = {P_out}.
///
/// On identical-link platforms the two formulas coincide (the serialized
/// boundary transfers are merely attributed to the receiving side in (1) and
/// to the sending side in (2)); a unit test pins this equivalence down.
///
/// General mappings (Theorem 4) have no replication; their latency is the
/// weight of the corresponding path in the layered graph of Figure 6:
/// computation w_k / s_{alloc(k)} per stage plus delta_k / b_{u,v} on every
/// boundary where the processor changes, plus the P_in / P_out transfers.

#include <cstdint>
#include <optional>
#include <span>

#include "relap/mapping/general_mapping.hpp"
#include "relap/mapping/interval_mapping.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/util/expected.hpp"

namespace relap::mapping {

/// Equation (1). Precondition: `platform.has_homogeneous_links()` and the
/// mapping is compatible with the instance (see validate.hpp).
[[nodiscard]] double latency_eq1(const pipeline::Pipeline& pipeline,
                                 const platform::Platform& platform,
                                 const IntervalMapping& mapping);

/// Equation (2). Valid on any platform; on identical-link platforms it
/// equals `latency_eq1`.
[[nodiscard]] double latency_eq2(const pipeline::Pipeline& pipeline,
                                 const platform::Platform& platform,
                                 const IntervalMapping& mapping);

/// Dispatches to the paper's formula for the platform class: (1) on
/// identical-link platforms, (2) otherwise.
[[nodiscard]] double latency(const pipeline::Pipeline& pipeline,
                             const platform::Platform& platform, const IntervalMapping& mapping);

/// Latency of a general (unreplicated, possibly non-interval) mapping: the
/// layered-graph path weight of Theorem 4.
[[nodiscard]] double latency(const pipeline::Pipeline& pipeline,
                             const platform::Platform& platform, const GeneralMapping& mapping);

/// Same, on a bare stage->processor assignment span. This is the
/// zero-allocation form the parallel enumerators evaluate millions of
/// candidates through; the `GeneralMapping` overload forwards to it, so the
/// two are bit-identical by construction.
[[nodiscard]] double latency(const pipeline::Pipeline& pipeline,
                             const platform::Platform& platform,
                             std::span<const platform::ProcessorId> assignment);

/// Lane-batched form of the span-assignment latency for the general and
/// one-to-one enumerators: evaluates W assignments at once, one per SIMD
/// lane. `ids` is lane-major — ids[k * W + l] holds assignment l's processor
/// for stage k — and all W * n entries must be in-bounds processor ids (a
/// partial batch keeps stale-but-valid ids in the unused lanes and the
/// caller ignores those outputs). Writes out[l] for l in [0, W), each
/// bit-identical to the scalar span overload on that lane's assignment.
/// Instantiated for W in {1, 4, 8}.
template <std::size_t W>
void latency_assignment_lanes(const pipeline::Pipeline& pipeline,
                              const platform::Platform& platform, const std::uint64_t* ids,
                              double* out);

/// Lower bound on the latency of *any* interval mapping on this instance:
/// total work on the fastest processor plus the cheapest possible input and
/// output transfers. Used by benches and tests as a sanity floor.
[[nodiscard]] double latency_lower_bound(const pipeline::Pipeline& pipeline,
                                         const platform::Platform& platform);

/// The joint instance rule that keeps every interval mapping's latency
/// finite. No mapping computes more than the total work on the slowest
/// processor or sends more than m + 1 messages (one per replica, one to
/// P_out), so W_total / s_min + (m + 1) * delta_max / b_min, with b_min over
/// P_in, P_out and the off-diagonal links, bounds every latency. That bound,
/// and the bound divided by `time_scale` (a canonical instance's caller
/// units; 1 otherwise), must stay below half the largest double: headroom
/// for the evaluators' rounding. Returns the violation as a "malformed"
/// error; readers of untrusted input run it after the model types' checks.
[[nodiscard]] std::optional<util::Error> check_latency_range(const pipeline::Pipeline& pipeline,
                                                             const platform::Platform& platform,
                                                             double time_scale);

}  // namespace relap::mapping
