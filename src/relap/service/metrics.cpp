#include "relap/service/metrics.hpp"

#include <cmath>

#include "relap/util/strings.hpp"

namespace relap::service {

namespace {

std::string json_number(double value) { return util::format_general(value, 17); }

void append_counter(std::string& out, const char* name, const Counter& counter, bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;
  out += "\":";
  out += std::to_string(counter.value());
}

void append_gauge(std::string& out, const char* name, const Gauge& gauge, bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;
  out += "\":";
  out += json_number(gauge.value());
}

void append_histogram(std::string& out, const char* name, const LatencyHistogram& histogram,
                      bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;
  out += "\":";
  out += histogram.to_json();
}

}  // namespace

double LatencyHistogram::bucket_upper_bound(int i) {
  return std::ldexp(1.0, i + 1 + kMinExponent);
}

int LatencyHistogram::bucket_index(double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) return 0;
  const int e = std::ilogb(seconds) - kMinExponent;
  if (e < 0) return 0;
  if (e >= kBuckets) return kBuckets - 1;
  return e;
}

void LatencyHistogram::record(double seconds) {
  buckets_[static_cast<std::size_t>(bucket_index(seconds))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds * 1e9;
  const std::uint64_t clamped =
      !(ns > 0.0) ? 0
                  : (ns >= 1.8e19 ? static_cast<std::uint64_t>(-1) / 2
                                  : static_cast<std::uint64_t>(ns));
  total_ns_.fetch_add(clamped, std::memory_order_relaxed);
}

std::string LatencyHistogram::to_json() const {
  std::string out = "{\"count\":" + std::to_string(count());
  out += ",\"total_seconds\":" + json_number(total_seconds());
  out += ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = bucket_count(i);
    if (c == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"le\":" + json_number(bucket_upper_bound(i)) + ",\"count\":" + std::to_string(c) +
           '}';
  }
  out += "]}";
  return out;
}

std::string ServiceMetrics::to_json() const {
  std::string out = "{";
  bool first = true;
  append_counter(out, "requests_total", requests_total, first);
  append_counter(out, "rejected_total", rejected_total, first);
  append_counter(out, "batches_total", batches_total, first);
  append_counter(out, "deduped_total", deduped_total, first);
  append_counter(out, "solves_total", solves_total, first);
  append_counter(out, "solve_errors_total", solve_errors_total, first);
  append_counter(out, "deadline_exceeded_total", deadline_exceeded_total, first);
  append_counter(out, "cancelled_total", cancelled_total, first);
  append_counter(out, "shed_total", shed_total, first);
  append_counter(out, "snapshot_saves", snapshot_saves, first);
  append_counter(out, "snapshot_loads", snapshot_loads, first);
  append_counter(out, "snapshot_entries_saved", snapshot_entries_saved, first);
  append_counter(out, "snapshot_entries_loaded", snapshot_entries_loaded, first);
  append_counter(out, "journal_records_replayed", journal_records_replayed, first);
  append_counter(out, "journal_records_discarded_torn", journal_records_discarded_torn, first);
  append_gauge(out, "recovery_seconds", recovery_seconds, first);
  out += ",\"latency\":{";
  first = true;
  append_histogram(out, "queue_wait", queue_wait, first);
  append_histogram(out, "canonicalize", canonicalize, first);
  append_histogram(out, "prepare", prepare, first);
  append_histogram(out, "cache_probe", cache_probe, first);
  append_histogram(out, "solve", solve, first);
  append_histogram(out, "denormalize", denormalize, first);
  append_histogram(out, "request", request, first);
  append_histogram(out, "render", render, first);
  append_histogram(out, "write", write, first);
  out += "}}";
  return out;
}

}  // namespace relap::service
