#include "relap/util/strings.hpp"

#include <charconv>
#include <cmath>

namespace relap::util {

namespace {
bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_ws(s[begin])) ++begin;
  while (end > begin && is_ws(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_ws(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_ws(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::optional<double> parse_double(std::string_view token) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::size_t> parse_size(std::string_view token) {
  std::size_t value = 0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::string format_fixed(double value, int decimals) {
  // Widest `%.*f` text: sign, 309 integer digits, point, decimals (a
  // negative count means printf's default of 6).
  std::string out(311 + static_cast<std::size_t>(decimals < 0 ? 6 : decimals), '\0');
  char* end =
      std::to_chars(out.data(), out.data() + out.size(), value, std::chars_format::fixed, decimals)
          .ptr;
  out.resize(static_cast<std::size_t>(end - out.data()));
  return out;
}

std::string format_general(double value, int precision) {
  char buffer[64];
  char* end =
      std::to_chars(buffer, buffer + sizeof buffer, value, std::chars_format::general, precision)
          .ptr;
  return std::string(buffer, end);
}

std::string format_double(double value) {
  // Integers of magnitude below 1e15 print as integers ("100", not
  // "1e+02"): instance files and describe() strings are read by humans
  // first. The range check comes before the cast, which is undefined for
  // inf, NaN and |x| >= 2^63.
  if (value > -1e15 && value < 1e15 && value == std::trunc(value)) {
    if (value == 0.0 && std::signbit(value)) return "-0";
    char buffer[24];
    char* end = std::to_chars(buffer, buffer + sizeof buffer, static_cast<long long>(value)).ptr;
    return std::string(buffer, end);
  }
  char buffer[32];
  char* const last = buffer + sizeof buffer;
  if (!std::isfinite(value)) return std::string(buffer, std::to_chars(buffer, last, value).ptr);
  // `%.{p}g` with the smallest p that round-trips: p starts at the digit
  // count of the shortest round-trip form; a correctly rounded p-digit
  // string can still miss the round-trip interval next to a power of two,
  // so one parse confirms it and p grows in that rare case.
  char* end = std::to_chars(buffer, last, value, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buffer; c != end && *c != 'e'; ++c) precision += *c >= '0' && *c <= '9';
  for (;; ++precision) {
    end = std::to_chars(buffer, last, value, std::chars_format::general, precision).ptr;
    double reparsed = 0.0;
    std::from_chars(buffer, end, reparsed);
    if (reparsed == value || precision >= 17) return std::string(buffer, end);
  }
}

std::string join(const std::vector<std::string>& tokens, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(tokens[i]);
  }
  return out;
}

}  // namespace relap::util
