#include "relap/platform/builders.hpp"

#include <utility>

#include "relap/util/assert.hpp"

namespace relap::platform {

namespace {

Platform uniform_links(std::vector<double> speeds, std::vector<double> failure_probs, double b) {
  const std::size_t m = speeds.size();
  std::vector<std::vector<double>> link(m, std::vector<double>(m, b));
  return Platform(std::move(speeds), std::move(failure_probs), std::move(link),
                  std::vector<double>(m, b), std::vector<double>(m, b));
}

}  // namespace

Platform make_fully_homogeneous(std::size_t m, double s, double b, double fp) {
  return uniform_links(std::vector<double>(m, s), std::vector<double>(m, fp), b);
}

Platform make_fully_homogeneous_het_failures(double s, double b,
                                             std::vector<double> failure_probs) {
  const std::size_t m = failure_probs.size();
  return uniform_links(std::vector<double>(m, s), std::move(failure_probs), b);
}

Platform make_comm_homogeneous(std::vector<double> speeds, double b, double fp) {
  const std::size_t m = speeds.size();
  return uniform_links(std::move(speeds), std::vector<double>(m, fp), b);
}

Platform make_comm_homogeneous(std::vector<double> speeds, double b,
                               std::vector<double> failure_probs) {
  return uniform_links(std::move(speeds), std::move(failure_probs), b);
}

ProcessorId PlatformBuilder::add_processor(double speed, double failure_prob) {
  speeds_.push_back(speed);
  failure_probs_.push_back(failure_prob);
  return speeds_.size() - 1;
}

PlatformBuilder& PlatformBuilder::default_bandwidth(double b) {
  default_bandwidth_ = b;
  return *this;
}

PlatformBuilder& PlatformBuilder::link(ProcessorId u, ProcessorId v, double b) {
  links_.push_back({u, v, b});
  links_.push_back({v, u, b});
  return *this;
}

PlatformBuilder& PlatformBuilder::directed_link(ProcessorId u, ProcessorId v, double b) {
  links_.push_back({u, v, b});
  return *this;
}

PlatformBuilder& PlatformBuilder::link_in(ProcessorId u, double b) {
  in_links_.push_back({0, u, b});
  return *this;
}

PlatformBuilder& PlatformBuilder::link_out(ProcessorId u, double b) {
  out_links_.push_back({u, 0, b});
  return *this;
}

Platform PlatformBuilder::build() const {
  const std::size_t m = speeds_.size();
  std::vector<std::vector<double>> link(m, std::vector<double>(m, default_bandwidth_));
  std::vector<double> in(m, default_bandwidth_);
  std::vector<double> out(m, default_bandwidth_);
  for (const LinkOverride& o : links_) {
    RELAP_ASSERT(o.u < m && o.v < m, "link override out of range");
    link[o.u][o.v] = o.bandwidth;
  }
  for (const LinkOverride& o : in_links_) {
    RELAP_ASSERT(o.v < m, "P_in link override out of range");
    in[o.v] = o.bandwidth;
  }
  for (const LinkOverride& o : out_links_) {
    RELAP_ASSERT(o.u < m, "P_out link override out of range");
    out[o.u] = o.bandwidth;
  }
  return Platform(speeds_, failure_probs_, std::move(link), std::move(in), std::move(out));
}

}  // namespace relap::platform
