#pragma once

/// \file bytes.hpp
/// Fixed-width little-endian byte serialization, shared by every binary
/// encoder in the tree: the canonical instance key bytes
/// (io::append_instance_key_bytes), the broker's full cache keys and the
/// journal records that snapshots and the write-ahead log share
/// (service/journal.hpp).
///
/// All writers emit little-endian regardless of host byte order (values are
/// decomposed by shifting, never by memcpy of native representations), so
/// canonical hashes and snapshots are portable across hosts. Doubles travel
/// as the little-endian bytes of their IEEE-754 bit pattern: two values
/// serialize identically iff they are bit-identical — the same contract the
/// FNV-1a checksums pin (util/hash.hpp). The byte layout is known-answer
/// tested in tests/test_util_bytes.cpp; changing it invalidates committed
/// snapshots and journals and must bump kJournalFormatVersion.
///
/// `ByteReader` is the decoding side: a cursor over a byte string whose
/// every read is bounds-checked and returns false on truncation instead of
/// reading past the end — binary input is runtime data, never trusted.

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace relap::util::bytes {

inline void append_u32_le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFU));
}

inline void append_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFU));
}

/// The IEEE-754 bit pattern of `v`, least-significant byte first.
inline void append_double_le(std::string& out, double v) {
  append_u64_le(out, std::bit_cast<std::uint64_t>(v));
}

inline void append_doubles_le(std::string& out, std::span<const double> values) {
  for (const double v : values) append_double_le(out, v);
}

/// Length-prefixed byte string: u64 size, then the raw bytes.
inline void append_bytes(std::string& out, std::string_view bytes) {
  append_u64_le(out, bytes.size());
  out.append(bytes);
}

/// Bounds-checked little-endian decoder over a byte string. Every `read_*`
/// either consumes exactly its fixed width (or declared length) and returns
/// true, or leaves the cursor untouched and returns false — a false return
/// means the input is truncated relative to the declared layout.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - cursor_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  [[nodiscard]] std::size_t cursor() const { return cursor_; }

  [[nodiscard]] bool read_u32_le(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[cursor_ + i]))
             << (8 * i);
    }
    cursor_ += 4;
    return true;
  }

  [[nodiscard]] bool read_u64_le(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[cursor_ + i]))
             << (8 * i);
    }
    cursor_ += 8;
    return true;
  }

  [[nodiscard]] bool read_double_le(double& out) {
    std::uint64_t bits = 0;
    if (!read_u64_le(bits)) return false;
    out = std::bit_cast<double>(bits);
    return true;
  }

  /// A view of the next `size` raw bytes (no length prefix).
  [[nodiscard]] bool read_raw(std::size_t size, std::string_view& out) {
    if (remaining() < size) return false;
    out = bytes_.substr(cursor_, size);
    cursor_ += size;
    return true;
  }

  /// A u64-length-prefixed byte string written by `append_bytes`.
  [[nodiscard]] bool read_bytes(std::string_view& out) {
    const std::size_t start = cursor_;
    std::uint64_t size = 0;
    if (!read_u64_le(size)) return false;
    if (size > remaining()) {
      cursor_ = start;
      return false;
    }
    return read_raw(static_cast<std::size_t>(size), out);
  }

 private:
  std::string_view bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace relap::util::bytes
