#include "relap/io/instance_format.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "relap/mapping/latency.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/strings.hpp"

namespace relap::io {

namespace {

/// A comment-stripped, trimmed line with its 1-based source position.
struct Line {
  int number;
  std::string_view text;
};

std::vector<Line> significant_lines(std::string_view text) {
  std::vector<Line> lines;
  int number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    ++number;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = util::trim(line);
    if (!line.empty()) lines.push_back(Line{number, line});
    if (end == text.size()) break;
    start = end + 1;
  }
  return lines;
}

/// Cursor over significant lines with one-token-lookahead helpers.
class Reader {
 public:
  explicit Reader(std::vector<Line> lines) : lines_(std::move(lines)) {}

  [[nodiscard]] bool done() const { return index_ >= lines_.size(); }
  [[nodiscard]] const Line& peek() const { return lines_[index_]; }
  const Line& next() { return lines_[index_++]; }
  [[nodiscard]] int last_line() const {
    return lines_.empty() ? 0 : lines_[std::min(index_, lines_.size() - 1)].number;
  }

 private:
  std::vector<Line> lines_;
  std::size_t index_ = 0;
};

util::Expected<std::vector<double>> parse_value_line(const Line& line, std::string_view keyword,
                                                     std::size_t expected_count) {
  const std::vector<std::string_view> tokens = util::split_ws(line.text);
  if (tokens.empty() || tokens.front() != keyword) {
    return util::parse_error(line.number, "expected '" + std::string(keyword) + " ...'");
  }
  std::vector<double> values;
  values.reserve(tokens.size() - 1);
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::optional<double> v = util::parse_double(tokens[i]);
    if (!v) {
      return util::parse_error(line.number, "bad number '" + std::string(tokens[i]) + "'");
    }
    values.push_back(*v);
  }
  if (values.size() != expected_count) {
    return util::parse_error(line.number, "expected " + std::to_string(expected_count) +
                                              " values after '" + std::string(keyword) +
                                              "', got " + std::to_string(values.size()));
  }
  return values;
}

util::Expected<std::size_t> parse_count_line(const Line& line, std::string_view keyword) {
  const std::vector<std::string_view> tokens = util::split_ws(line.text);
  if (tokens.size() != 2 || tokens.front() != keyword) {
    return util::parse_error(line.number, "expected '" + std::string(keyword) + " <count>'");
  }
  const std::optional<std::size_t> count = util::parse_size(tokens[1]);
  if (!count || *count == 0) {
    return util::parse_error(line.number, "count must be a positive integer");
  }
  return *count;
}

}  // namespace

util::Expected<Instance> parse_instance(std::string_view text) {
  Reader reader(significant_lines(text));
  if (reader.done() || reader.next().text != "relap-instance v1") {
    return util::parse_error(1, "missing 'relap-instance v1' header");
  }

  if (reader.done()) return util::parse_error(reader.last_line(), "missing 'pipeline' section");
  auto stage_count = parse_count_line(reader.next(), "pipeline");
  if (!stage_count) return stage_count.error();

  if (reader.done()) return util::parse_error(reader.last_line(), "missing 'work' line");
  auto work = parse_value_line(reader.next(), "work", *stage_count);
  if (!work) return work.error();

  if (reader.done()) return util::parse_error(reader.last_line(), "missing 'data' line");
  auto data = parse_value_line(reader.next(), "data", *stage_count + 1);
  if (!data) return data.error();

  if (reader.done()) return util::parse_error(reader.last_line(), "missing 'platform' section");
  auto proc_count = parse_count_line(reader.next(), "platform");
  if (!proc_count) return proc_count.error();
  const std::size_t m = *proc_count;

  if (reader.done()) return util::parse_error(reader.last_line(), "missing 'speeds' line");
  auto speeds = parse_value_line(reader.next(), "speeds", m);
  if (!speeds) return speeds.error();

  if (reader.done()) return util::parse_error(reader.last_line(), "missing 'failures' line");
  auto failures = parse_value_line(reader.next(), "failures", m);
  if (!failures) return failures.error();

  if (reader.done()) return util::parse_error(reader.last_line(), "missing 'links' line");
  const Line links_line = reader.next();
  const std::vector<std::string_view> link_tokens = util::split_ws(links_line.text);
  if (link_tokens.empty() || link_tokens.front() != "links") {
    return util::parse_error(links_line.number, "expected 'links uniform <b>' or 'links matrix'");
  }

  std::vector<std::vector<double>> link;
  std::vector<double> in;
  std::vector<double> out;
  if (link_tokens.size() == 3 && link_tokens[1] == "uniform") {
    const std::optional<double> b = util::parse_double(link_tokens[2]);
    if (!b) {
      return util::parse_error(links_line.number,
                               "bad number '" + std::string(link_tokens[2]) + "'");
    }
    link.assign(m, std::vector<double>(m, *b));
    in.assign(m, *b);
    out.assign(m, *b);
  } else if (link_tokens.size() == 2 && link_tokens[1] == "matrix") {
    for (std::size_t u = 0; u < m; ++u) {
      if (reader.done()) return util::parse_error(reader.last_line(), "missing 'row' line");
      auto row = parse_value_line(reader.next(), "row", m);
      if (!row) return row.error();
      link.push_back(std::move(row).take());
    }
    if (reader.done()) return util::parse_error(reader.last_line(), "missing 'in' line");
    auto in_values = parse_value_line(reader.next(), "in", m);
    if (!in_values) return in_values.error();
    in = std::move(in_values).take();
    if (reader.done()) return util::parse_error(reader.last_line(), "missing 'out' line");
    auto out_values = parse_value_line(reader.next(), "out", m);
    if (!out_values) return out_values.error();
    out = std::move(out_values).take();
  } else {
    return util::parse_error(links_line.number, "expected 'links uniform <b>' or 'links matrix'");
  }

  if (!reader.done()) {
    return util::parse_error(reader.peek().number, "unexpected trailing content");
  }

  // The value rules are the model types' own, then the joint latency rule,
  // all reported as parse errors.
  std::optional<util::Error> violation = pipeline::Pipeline::check(*work, *data);
  if (!violation) violation = platform::Platform::check(*speeds, *failures, link, in, out);
  if (violation) return util::parse_error(0, violation->message);

  Instance instance{pipeline::Pipeline(std::move(*work), std::move(*data)),
                    platform::Platform(std::move(*speeds), std::move(*failures), std::move(link),
                                       std::move(in), std::move(out))};
  violation = mapping::check_latency_range(instance.pipeline, instance.platform, 1.0);
  if (violation) return util::parse_error(0, violation->message);
  return instance;
}

util::Expected<Instance> load_instance(const std::string& path) {
  std::ifstream file(path);
  if (!file) return util::make_error("io", "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_instance(buffer.str());
}

std::string format_instance(const Instance& instance) {
  const pipeline::Pipeline& pipe = instance.pipeline;
  const platform::Platform& plat = instance.platform;
  const std::size_t m = plat.processor_count();

  std::string text = "relap-instance v1\n";
  text += "pipeline " + std::to_string(pipe.stage_count()) + '\n';
  text += "work";
  for (const double w : pipe.work_vector()) text += ' ' + util::format_double(w);
  text += "\ndata";
  for (const double d : pipe.data_vector()) text += ' ' + util::format_double(d);
  text += "\nplatform " + std::to_string(m) + '\n';
  text += "speeds";
  for (const double s : plat.speeds()) text += ' ' + util::format_double(s);
  text += "\nfailures";
  for (const double f : plat.failure_probs()) text += ' ' + util::format_double(f);
  text += '\n';

  if (plat.has_homogeneous_links()) {
    text += "links uniform " + util::format_double(plat.common_bandwidth()) + '\n';
  } else {
    text += "links matrix\n";
    for (std::size_t u = 0; u < m; ++u) {
      text += "row";
      for (std::size_t v = 0; v < m; ++v) {
        text += ' ' + util::format_double(u == v ? 1.0 : plat.bandwidth(u, v));
      }
      text += '\n';
    }
    text += "in";
    for (std::size_t u = 0; u < m; ++u) text += ' ' + util::format_double(plat.bandwidth_in(u));
    text += "\nout";
    for (std::size_t u = 0; u < m; ++u) text += ' ' + util::format_double(plat.bandwidth_out(u));
    text += '\n';
  }
  return text;
}

void append_instance_key_bytes(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform, std::string& out) {
  // Explicitly little-endian via util/bytes so the key bytes — and every
  // canonical hash and snapshot derived from them — are portable across
  // hosts. Layout is known-answer pinned in tests/test_util_bytes.cpp.
  const std::size_t m = platform.processor_count();
  out.reserve(out.size() + 8 * (2 + pipeline.stage_count() * 2 + 1 + m * (4 + m)));
  util::bytes::append_u64_le(out, pipeline.stage_count());
  util::bytes::append_u64_le(out, m);
  util::bytes::append_doubles_le(out, pipeline.work_vector());
  util::bytes::append_doubles_le(out, pipeline.data_vector());
  util::bytes::append_doubles_le(out, platform.speeds());
  util::bytes::append_doubles_le(out, platform.failure_probs());
  util::bytes::append_doubles_le(out, platform.in_bandwidths());
  util::bytes::append_doubles_le(out, platform.out_bandwidths());
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t v = 0; v < m; ++v) {
      if (u != v) util::bytes::append_double_le(out, platform.bandwidth(u, v));
    }
  }
}

std::optional<InstanceKeyCounts> read_instance_key_counts(std::string_view key) {
  util::bytes::ByteReader reader(key);
  std::uint64_t stages = 0;
  std::uint64_t processors = 0;
  if (!reader.read_u64_le(stages) || !reader.read_u64_le(processors)) return std::nullopt;
  return InstanceKeyCounts{stages, processors};
}

util::Expected<bool> save_instance(const Instance& instance, const std::string& path) {
  std::ofstream file(path);
  if (!file) return util::make_error("io", "cannot open '" + path + "' for writing");
  file << format_instance(instance);
  if (!file) return util::make_error("io", "write to '" + path + "' failed");
  return true;
}

util::Expected<mapping::IntervalMapping> parse_mapping(std::string_view text) {
  std::vector<mapping::IntervalAssignment> intervals;
  for (const std::string_view token : util::split_ws(text)) {
    // Token shape: [a..b]->{x,y,z}
    const std::size_t dots = token.find("..");
    const std::size_t close = token.find("]->{");
    if (token.empty() || token.front() != '[' || token.back() != '}' ||
        dots == std::string_view::npos || close == std::string_view::npos || dots > close) {
      return util::parse_error(0, "bad interval token '" + std::string(token) + "'");
    }
    const std::optional<std::size_t> first = util::parse_size(token.substr(1, dots - 1));
    const std::optional<std::size_t> last =
        util::parse_size(token.substr(dots + 2, close - dots - 2));
    if (!first || !last) {
      return util::parse_error(0, "bad interval bounds in '" + std::string(token) + "'");
    }
    std::vector<platform::ProcessorId> processors;
    const std::string_view group = token.substr(close + 4, token.size() - close - 5);
    for (const std::string_view id_token : util::split(group, ',')) {
      const std::optional<std::size_t> id = util::parse_size(util::trim(id_token));
      if (!id) return util::parse_error(0, "bad processor id in '" + std::string(token) + "'");
      processors.push_back(*id);
    }
    intervals.push_back(mapping::IntervalAssignment{{*first, *last}, std::move(processors)});
  }
  util::Expected<mapping::IntervalMapping> mapping =
      mapping::IntervalMapping::make(std::move(intervals));
  if (!mapping) return util::parse_error(0, mapping.error().message);
  return mapping;
}

std::string format_mapping(const mapping::IntervalMapping& mapping) { return mapping.describe(); }

}  // namespace relap::io
