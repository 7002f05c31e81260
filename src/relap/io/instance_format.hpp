#pragma once

/// \file instance_format.hpp
/// Plain-text instance format: a pipeline plus a platform in one file,
/// parsed and written losslessly (round-trip tested). Mappings have their
/// own compact one-line syntax for the CLI tool.
///
/// Format (line-oriented, '#' starts a comment, blank lines ignored):
///
///     relap-instance v1
///     pipeline 3
///     work 1 2 3
///     data 1 1 1 1
///     platform 2
///     speeds 1 2
///     failures 0.1 0.2
///     links uniform 5
///
/// or, for Fully Heterogeneous platforms:
///
///     links matrix
///     row 0 4 2          # m values per row; the diagonal entry is ignored
///     row 2 0 7
///     in 1 3
///     out 2 2
///
/// Mapping syntax (whitespace-separated intervals):
///
///     [0..1]->{0,2} [2..2]->{1}

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "relap/mapping/interval_mapping.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/util/expected.hpp"

namespace relap::io {

/// A parsed instance: the application and the target platform.
struct Instance {
  pipeline::Pipeline pipeline;
  platform::Platform platform;
};

/// Parses the textual format above. Errors carry the offending line number.
[[nodiscard]] util::Expected<Instance> parse_instance(std::string_view text);

/// Reads and parses a file. Errors: "io" when unreadable, else parse errors.
[[nodiscard]] util::Expected<Instance> load_instance(const std::string& path);

/// Serializes an instance in the format `parse_instance` accepts.
[[nodiscard]] std::string format_instance(const Instance& instance);

/// Writes `format_instance` to a file. Error code "io" on failure.
[[nodiscard]] util::Expected<bool> save_instance(const Instance& instance,
                                                 const std::string& path);

/// Compact binary serialization of an instance, used by the service layer as
/// the cache-key payload (service/cache.hpp): stage and processor counts
/// followed by the raw little-endian IEEE-754 bit patterns of every column in
/// a fixed order (work, data, speeds, failure probabilities, P_in/P_out
/// bandwidths, then the off-diagonal link matrix row-major). Two instances
/// produce the same bytes iff they are bit-identical as problems — the
/// ignored link-matrix diagonal is excluded. Appends to `out`.
void append_instance_key_bytes(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform, std::string& out);

/// The stage and processor counts that open `append_instance_key_bytes`
/// output: all a cache key says about the shape of its instance.
struct InstanceKeyCounts {
  std::uint64_t stages = 0;
  std::uint64_t processors = 0;
};

/// Reads the counts at the start of `key`; nullopt when it is too short to
/// hold them.
[[nodiscard]] std::optional<InstanceKeyCounts> read_instance_key_counts(std::string_view key);

/// Parses the one-line mapping syntax.
[[nodiscard]] util::Expected<mapping::IntervalMapping> parse_mapping(std::string_view text);

/// Serializes a mapping in the syntax `parse_mapping` accepts.
[[nodiscard]] std::string format_mapping(const mapping::IntervalMapping& mapping);

}  // namespace relap::io
