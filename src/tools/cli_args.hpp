// Strict numeric flag parsing shared by the command-line tools.
//
// Every numeric flag goes through parse_flag(): the whole token must be a
// number of the flag's type (no trailing characters, no sign on unsigned
// types, no leading blanks), finite, and inside the flag's documented
// range. Anything else prints one line naming the flag, the token and the
// reason, and the caller exits 2 with its usage text — a typo never runs
// with a silently substituted value or trips an internal invariant later.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace bwpart::cli {

/// Parses all of `text` as a T (an integer type or double); nullopt unless
/// every character is consumed and a floating value is finite.
template <class T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  std::from_chars_result res{};
  if constexpr (std::is_floating_point_v<T>) {
    res = std::from_chars(first, last, value, std::chars_format::general);
  } else {
    res = std::from_chars(first, last, value, 10);
  }
  if (text.empty() || res.ec != std::errc{} || res.ptr != last) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

template <class T>
std::string bound_text(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  } else {
    return std::to_string(v);
  }
}

/// Stores flag `flag`'s value `text` (nullptr when the flag was the last
/// argument) into `out` if it parses and lies in [lo, hi]; otherwise prints
/// why to stderr and returns false, leaving `out` untouched.
template <class T>
bool parse_flag(std::string_view flag, const char* text, T& out,
                T lo = std::numeric_limits<T>::lowest(),
                T hi = std::numeric_limits<T>::max()) {
  const std::string name(flag);
  if (text == nullptr) {
    std::fprintf(stderr, "%s needs a value\n", name.c_str());
    return false;
  }
  const std::optional<T> v = parse_number<T>(text);
  if (!v) {
    std::fprintf(stderr, "%s: '%s' is not a valid %s\n", name.c_str(), text,
                 std::is_floating_point_v<T> ? "finite number"
                 : std::is_signed_v<T>       ? "integer"
                                             : "non-negative integer");
    return false;
  }
  if (*v < lo || *v > hi) {
    std::fprintf(stderr, "%s: %s is out of range [%s, %s]\n", name.c_str(),
                 text, bound_text(lo).c_str(), bound_text(hi).c_str());
    return false;
  }
  out = *v;
  return true;
}

}  // namespace bwpart::cli
