#include "relap/mapping/mapping_lanes.hpp"

#include <algorithm>
#include <limits>

#include "relap/util/assert.hpp"
#include "relap/util/simd.hpp"

namespace relap::mapping {

namespace simd = util::simd;

template <std::size_t W>
LaneEvalBatch<W>::LaneEvalBatch(std::size_t stage_count, std::size_t processor_count)
    : mcap_(processor_count), pcap_(std::min(stage_count, processor_count)) {
  for (CompositionSlot& s : slots_) {
    s.stage_offsets.reserve(pcap_ + 1);
    s.cache.work.reserve(pcap_);
    s.cache.data_first.reserve(pcap_);
    s.cache.out_size.reserve(pcap_);
  }
  slot_of_lane_.fill(kNoSlot);
  for (CompositionCache& c : cache_) {
    c.work.reserve(pcap_);
    c.data_first.reserve(pcap_);
    c.out_size.reserve(pcap_);
  }
  stage_offsets_l_.resize(W * (pcap_ + 1), 0);
  group_offsets_l_.resize(W * (pcap_ + 1), 0);
  processors_l_.resize(W * mcap_, 0);
  cursor_.resize(pcap_, 0);
  p_u_.fill(0);
  dlast_.fill(0.0);
  work_.resize(pcap_ * W, 0.0);
  dfirst_.resize(pcap_ * W, 0.0);
  dout_.resize(pcap_ * W, 0.0);
  ksize_u_.resize(pcap_ * W, 0);
  proc_.resize(pcap_ * mcap_ * W, 0);
  kmax_j_.resize(pcap_, 0);
  v_ids_.resize(mcap_);
  v_mask_.resize(mcap_);
}

template <std::size_t W>
void LaneEvalBatch<W>::set_composition(const pipeline::Pipeline& pipeline,
                                       std::span<const std::size_t> lengths) {
  const std::size_t p = lengths.size();
  RELAP_ASSERT(p >= 1 && p <= pcap_, "composition part count out of range for this batch");
  // Reuse the active slot if no staged lane pins it; otherwise advance the
  // ring (the next slot is always free: at most W of the W + 1 slots can be
  // pinned by a batch of W lanes).
  if (slot_refs_[active_slot_] != 0) {
    active_slot_ = (active_slot_ + 1) % (W + 1);
    RELAP_ASSERT(slot_refs_[active_slot_] == 0, "composition slot ring exhausted");
  }
  CompositionSlot& slot = slots_[active_slot_];
  slot.p = p;
  slot.stage_offsets.resize(p + 1);
  slot.cache.work.resize(p);
  slot.cache.data_first.resize(p);
  slot.cache.out_size.resize(p);
  std::size_t next = 0;
  for (std::size_t j = 0; j < p; ++j) {
    slot.stage_offsets[j] = next;
    next += lengths[j];
    slot.cache.work[j] = pipeline.work_sum(slot.stage_offsets[j], next - 1);
    slot.cache.data_first[j] = pipeline.data(slot.stage_offsets[j]);
    slot.cache.out_size[j] = pipeline.data(next);
  }
  slot.stage_offsets[p] = next;
  slot.cache.data_out = pipeline.data(pipeline.stage_count());
  RELAP_ASSERT(next == pipeline.stage_count(), "composition does not cover the pipeline");
}

template <std::size_t W>
void LaneEvalBatch<W>::push_grouping(std::span<const std::size_t> group_of,
                                     std::span<const std::size_t> group_sizes) {
  RELAP_ASSERT(size_ < W, "batch is full");
  const CompositionSlot& slot = slots_[active_slot_];
  const std::size_t p = slot.p;
  RELAP_ASSERT(group_sizes.size() == p, "group count does not match the composition");
  const std::size_t lane = size_++;

  // Pin the installed composition instead of copying it: the slot survives
  // a composition change mid-fill (set_composition advances the ring).
  slot_of_lane_[lane] = active_slot_;
  ++slot_refs_[active_slot_];

  // Counting-sort the enumeration word into the contiguous per-lane row
  // (backing `view`) and the lane-major proc columns in one pass; iterating
  // u ascending keeps every group ascending, matching IntervalMapping's
  // canonical sorted form.
  std::size_t* go = group_offsets_l_.data() + lane * (pcap_ + 1);
  std::size_t total = 0;
  for (std::size_t g = 0; g < p; ++g) {
    go[g] = total;
    cursor_[g] = 0;
    total += group_sizes[g];
    const std::size_t k = group_sizes[g];
    ksize_u_[g * W + lane] = k;
    if (k > kmax_j_[g]) kmax_j_[g] = k;
  }
  go[p] = total;
  platform::ProcessorId* procs = processors_l_.data() + lane * mcap_;
  const std::size_t m = group_of.size();
  for (std::size_t u = 0; u < m; ++u) {
    const std::size_t g = group_of[u];
    if (g < p) {
      const std::size_t r = cursor_[g]++;
      procs[go[g] + r] = static_cast<platform::ProcessorId>(u);
      proc_[(g * mcap_ + r) * W + lane] = u;
    }
  }
  for (std::size_t j = p; j < pcap_; ++j) ksize_u_[j * W + lane] = 0;
  p_u_[lane] = p;
  if (p > pmax_) pmax_ = p;
}

template <std::size_t W>
void LaneEvalBatch<W>::push_intervals(const pipeline::Pipeline& pipeline,
                                      std::span<const IntervalAssignment> intervals) {
  RELAP_ASSERT(size_ < W, "batch is full");
  const std::size_t p = intervals.size();
  RELAP_ASSERT(p >= 1 && p <= pcap_, "an interval mapping needs 1..pcap intervals");
  const std::size_t lane = size_++;
  slot_of_lane_[lane] = kNoSlot;

  CompositionCache& c = cache_[lane];
  c.work.resize(p);
  c.data_first.resize(p);
  c.out_size.resize(p);
  std::size_t* so = stage_offsets_l_.data() + lane * (pcap_ + 1);
  std::size_t* go = group_offsets_l_.data() + lane * (pcap_ + 1);
  platform::ProcessorId* procs = processors_l_.data() + lane * mcap_;
  std::size_t count = 0;
  for (std::size_t j = 0; j < p; ++j) {
    const IntervalAssignment& a = intervals[j];
    so[j] = a.stages.first;
    go[j] = count;
    for (std::size_t i = 0; i < a.processors.size(); ++i) {
      RELAP_ASSERT(i == 0 || a.processors[i - 1] < a.processors[i],
                   "interval groups must be sorted ascending (canonical form)");
      procs[count++] = a.processors[i];
    }
    c.work[j] = pipeline.work_sum(a.stages.first, a.stages.last);
    c.data_first[j] = pipeline.data(a.stages.first);
    c.out_size[j] = pipeline.data(a.stages.last + 1);
  }
  so[p] = intervals.back().stages.last + 1;
  go[p] = count;
  c.data_out = pipeline.data(pipeline.stage_count());

  stage_lane_columns(lane, p);
}

/// Interval-mode column staging: scatters the contiguous per-lane rows
/// written by `push_intervals` into the lane-major columns. Zeroed group
/// sizes past the lane's structure make every `r < k` / `j < p` mask
/// naturally false there; other staging stays stale (valid ids, finite
/// doubles) and is discarded by the masks.
template <std::size_t W>
void LaneEvalBatch<W>::stage_lane_columns(std::size_t lane, std::size_t p) {
  const std::size_t* go = group_offsets_l_.data() + lane * (pcap_ + 1);
  const platform::ProcessorId* procs = processors_l_.data() + lane * mcap_;
  p_u_[lane] = p;
  for (std::size_t j = 0; j < p; ++j) {
    const std::size_t k = go[j + 1] - go[j];
    ksize_u_[j * W + lane] = k;
    if (k > kmax_j_[j]) kmax_j_[j] = k;
    for (std::size_t r = 0; r < k; ++r) {
      proc_[(j * mcap_ + r) * W + lane] = procs[go[j] + r];
    }
  }
  for (std::size_t j = p; j < pcap_; ++j) ksize_u_[j * W + lane] = 0;
  if (p > pmax_) pmax_ = p;
}

template <std::size_t W>
void LaneEvalBatch<W>::clear() {
  size_ = 0;
  pmax_ = 0;
  std::fill(kmax_j_.begin(), kmax_j_.end(), 0);
  slot_refs_.fill(0);
}

template <std::size_t W>
MappingView LaneEvalBatch<W>::view(std::size_t lane) const {
  RELAP_ASSERT(lane < size_, "lane out of range");
  const std::size_t slot = slot_of_lane_[lane];
  const std::size_t p = static_cast<std::size_t>(p_u_[lane]);
  const std::size_t* so = slot == kNoSlot ? stage_offsets_l_.data() + lane * (pcap_ + 1)
                                          : slots_[slot].stage_offsets.data();
  const std::size_t* go = group_offsets_l_.data() + lane * (pcap_ + 1);
  return MappingView{std::span<const std::size_t>(so, p + 1),
                     std::span<const platform::ProcessorId>(
                         processors_l_.data() + lane * mcap_, go[p]),
                     std::span<const std::size_t>(go, p + 1)};
}

template <std::size_t W>
void LaneEvalBatch<W>::evaluate(const platform::Platform& platform,
                                std::span<ViewEval> out) const {
  RELAP_ASSERT(out.size() >= size_, "output span too small for the staged lanes");
  if (size_ == 0) return;

  using D = simd::DoubleLanes<W>;
  using U = simd::UintLanes<W>;

  const double* speeds = platform.speeds().data();
  const U p_lanes = simd::load_u<W>(p_u_.data());

  // Source of the composition columns: a batch whose lanes all pin the same
  // slot (the common enumeration case) broadcasts straight from it; a mixed
  // batch falls back to filling the lane-major scratch columns from each
  // lane's pinned composition.
  const CompositionCache* uni = nullptr;
  {
    const std::size_t s0 = slot_of_lane_[0];
    bool uniform = s0 != kNoSlot;
    for (std::size_t l = 1; l < size_ && uniform; ++l) uniform = slot_of_lane_[l] == s0;
    if (uniform) {
      uni = &slots_[s0].cache;
    } else {
      for (std::size_t l = 0; l < size_; ++l) {
        const CompositionCache& c = cache(l);
        const std::size_t p = static_cast<std::size_t>(p_u_[l]);
        for (std::size_t j = 0; j < p; ++j) {
          work_[j * W + l] = c.work[j];
          dfirst_[j * W + l] = c.data_first[j];
          dout_[j * W + l] = c.out_size[j];
        }
        dlast_[l] = c.data_out;
      }
    }
  }

  // --- latency: the lane transcription of latency_eq1 / latency_eq2.
  D latency;
  if (platform.has_homogeneous_links()) {
    const D inv_b = simd::broadcast<W>(platform.inv_common_bandwidth());
    simd::KahanLanes<W> total;
    for (std::size_t j = 0; j < pmax_; ++j) {
      const U active = simd::less_u(simd::broadcast_u<W>(j), p_lanes);
      const U ku = simd::load_u<W>(ksize_u_.data() + j * W);
      const D kd = simd::to_double_lanes<W>(ku);
      const D df = uni != nullptr ? simd::broadcast<W>(j < uni->data_first.size()
                                                           ? uni->data_first[j]
                                                           : 0.0)
                                  : simd::load<W>(dfirst_.data() + j * W);
      total.add_masked(simd::mul(simd::mul(kd, df), inv_b), active);
      D lo = simd::broadcast<W>(std::numeric_limits<double>::infinity());
      for (std::size_t r = 0; r < kmax_j_[j]; ++r) {
        const U rm = simd::less_u(simd::broadcast_u<W>(r), ku);
        const U ids = simd::load_u<W>(proc_.data() + (j * mcap_ + r) * W);
        lo = simd::select(rm, simd::min(simd::gather(speeds, ids), lo), lo);
      }
      const D work = uni != nullptr
                         ? simd::broadcast<W>(j < uni->work.size() ? uni->work[j] : 0.0)
                         : simd::load<W>(work_.data() + j * W);
      total.add_masked(simd::div(work, lo), active);
    }
    const D dlast = uni != nullptr ? simd::broadcast<W>(uni->data_out)
                                   : simd::load<W>(dlast_.data());
    total.add(simd::mul(dlast, inv_b));
    latency = total.value();
  } else {
    const double* inv_speeds = platform.inv_speeds().data();
    const double* inv_bw_in = platform.inv_in_bandwidths().data();
    const double* inv_bw_out = platform.inv_out_bandwidths().data();
    const double* flat_inv_bw = platform.flat_inv_link_bandwidths().data();
    const std::uint64_t m = platform.processor_count();
    simd::KahanLanes<W> total;

    // Serialized initial transfers into the first interval's replicas.
    {
      const U k0 = simd::load_u<W>(ksize_u_.data());
      const D df0 = uni != nullptr ? simd::broadcast<W>(uni->data_first[0])
                                   : simd::load<W>(dfirst_.data());
      for (std::size_t r = 0; r < kmax_j_[0]; ++r) {
        const U rm = simd::less_u(simd::broadcast_u<W>(r), k0);
        const U ids = simd::load_u<W>(proc_.data() + r * W);
        total.add_masked(simd::mul(df0, simd::gather(inv_bw_in, ids)), rm);
      }
    }

    for (std::size_t j = 0; j < pmax_; ++j) {
      const U active = simd::less_u(simd::broadcast_u<W>(j), p_lanes);
      const U lastj = simd::equal_u(simd::broadcast_u<W>(j + 1), p_lanes);
      const D work = uni != nullptr
                         ? simd::broadcast<W>(j < uni->work.size() ? uni->work[j] : 0.0)
                         : simd::load<W>(work_.data() + j * W);
      const D out_size = uni != nullptr
                             ? simd::broadcast<W>(j < uni->out_size.size() ? uni->out_size[j] : 0.0)
                             : simd::load<W>(dout_.data() + j * W);
      const U ku = simd::load_u<W>(ksize_u_.data() + j * W);
      // Receiver-side columns of the *next* interval are invariant across
      // the sender loop: hoist the ids and their `rv < k_{j+1}` masks. A
      // lane whose structure ends at j + 1 (or earlier) has a zeroed next
      // group size, so its send masks are false and only the `lastj` P_out
      // term applies.
      const std::size_t kvmax = j + 1 < pmax_ ? kmax_j_[j + 1] : 0;
      U* const v_ids = v_ids_.data();
      U* const v_mask = v_mask_.data();
      if (kvmax > 0) {
        const U kv = simd::load_u<W>(ksize_u_.data() + (j + 1) * W);
        for (std::size_t rv = 0; rv < kvmax; ++rv) {
          v_ids[rv] = simd::load_u<W>(proc_.data() + ((j + 1) * mcap_ + rv) * W);
          v_mask[rv] = simd::less_u(simd::broadcast_u<W>(rv), kv);
        }
      }
      D worst = simd::broadcast<W>(0.0);
      for (std::size_t ru = 0; ru < kmax_j_[j]; ++ru) {
        const U um = simd::less_u(simd::broadcast_u<W>(ru), ku);
        const U u_ids = simd::load_u<W>(proc_.data() + (j * mcap_ + ru) * W);
        D term = simd::mul(work, simd::gather(inv_speeds, u_ids));
        // Row base of the flat bandwidth matrix, shared by every receiver.
        const U u_row = simd::mul_u(u_ids, simd::broadcast_u<W>(m));
        for (std::size_t rv = 0; rv < kvmax; ++rv) {
          term = simd::select(
              v_mask[rv],
              simd::add(term, simd::mul(out_size,
                                        simd::gather(flat_inv_bw, simd::add_u(u_row, v_ids[rv])))),
              term);
        }
        term = simd::select(
            lastj, simd::add(term, simd::mul(out_size, simd::gather(inv_bw_out, u_ids))), term);
        worst = simd::select(um, simd::max(term, worst), worst);
      }
      total.add_masked(worst, active);
    }
    latency = total.value();
  }

  // --- failure probability: lane transcription of failure_probability.
  const double* fps = platform.failure_probs().data();
  const D one = simd::broadcast<W>(1.0);
  D survival = one;
  for (std::size_t j = 0; j < pmax_; ++j) {
    const U active = simd::less_u(simd::broadcast_u<W>(j), p_lanes);
    const U ku = simd::load_u<W>(ksize_u_.data() + j * W);
    D product = one;
    for (std::size_t r = 0; r < kmax_j_[j]; ++r) {
      const U rm = simd::less_u(simd::broadcast_u<W>(r), ku);
      const U ids = simd::load_u<W>(proc_.data() + (j * mcap_ + r) * W);
      product = simd::select(rm, simd::mul(product, simd::gather(fps, ids)), product);
    }
    survival = simd::select(active, simd::mul(survival, simd::sub(one, product)), survival);
  }
  const D failure = simd::sub(one, survival);

  for (std::size_t l = 0; l < size_; ++l) {
    out[l] = ViewEval{latency.v[l], failure.v[l]};
  }
}

template class LaneEvalBatch<1>;
template class LaneEvalBatch<4>;
template class LaneEvalBatch<8>;

}  // namespace relap::mapping
