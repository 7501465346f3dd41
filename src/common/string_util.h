#ifndef TUPELO_COMMON_STRING_UTIL_H_
#define TUPELO_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace tupelo {

// Splits `input` on `sep`, keeping empty fields. Splitting "" yields {""}.
std::vector<std::string> Split(std::string_view input, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Removes ASCII whitespace from both ends.
std::string_view StripAsciiWhitespace(std::string_view s);

// True if `s` consists of an optional sign followed by one or more digits.
bool IsInteger(std::string_view s);

// True if `s` parses as a decimal number (integer or with a fraction part).
bool IsNumber(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Lowercases ASCII characters.
std::string AsciiToLower(std::string_view s);

// Escapes `s` for embedding in the .tdb text format / expression syntax:
// backslash-escapes '\\', '"', '\n', '\t'. Quote() wraps in double quotes.
std::string Escape(std::string_view s);
std::string Quote(std::string_view s);

// Parses the value of a numeric command-line flag `arg` (of the form
// `<prefix><value>`) into `out`: plain decimal digits (a fraction too for
// floating-point fields), no sign, no trailing junk, no overflow of T, and
// at least `min`. Returns false and leaves `out` untouched otherwise, so a
// binary can turn every malformed value into the same usage error.
template <typename T>
bool ParseFlag(std::string_view arg, std::string_view prefix, T* out,
               std::type_identity_t<T> min = T{}) {
  std::string_view text = arg.substr(prefix.size());
  const char* end = text.data() + text.size();
  T value{};
  bool ok = !text.empty() && text.front() != '-' && text.front() != '+';
  if (ok) {
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    ok = ec == std::errc() && ptr == end && value >= min;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  }
  if (ok) *out = value;
  return ok;
}

}  // namespace tupelo

#endif  // TUPELO_COMMON_STRING_UTIL_H_
