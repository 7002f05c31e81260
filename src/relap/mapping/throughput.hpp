#pragma once

/// \file throughput.hpp
/// Steady-state period / throughput evaluation — an *extension* of the
/// paper (its Section 5 names the latency/throughput/reliability interplay
/// as future work; this module supplies the throughput leg so the
/// tri-criteria benches can explore it).
///
/// Model (documented choice, consistent with the one-port assumptions the
/// latency formulas make):
///  * every replica of interval j receives one copy of the interval input
///    per data set and computes the whole interval;
///  * the designated sender of interval j emits k_{j+1} serialized copies of
///    the interval output (one per replica of the next interval; a single
///    copy to P_out for the last interval);
///  * P_in emits k_1 serialized copies of delta_0 per data set.
///
/// The cycle time of a resource is the time it is busy per data set; the
/// period is the maximum cycle time over all resources (P_in, processors,
/// P_out); throughput = 1 / period. A replica that is not the designated
/// sender has a smaller cycle time, so the period uses the worst replica of
/// each group — in the failure-free steady state this is the group's slowest
/// processor acting as sender, the same worst-case stance the latency
/// formulas take.

#include "relap/mapping/interval_mapping.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"

namespace relap::mapping {

/// Steady-state period (time per data set) of an interval mapping.
[[nodiscard]] double period(const pipeline::Pipeline& pipeline,
                            const platform::Platform& platform, const IntervalMapping& mapping);

}  // namespace relap::mapping
