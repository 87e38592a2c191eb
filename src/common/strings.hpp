#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qadist {

/// Transparent hash for string-keyed unordered containers. Paired with
/// std::equal_to<> it lets find() probe with a std::string_view without
/// constructing a std::string. Hashes equal std::hash<std::string>'s, and
/// operator() is deliberately not noexcept so the containers keep caching
/// hash codes in their nodes, as they do for std::hash<std::string>.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// std::string-keyed hash map that is probed with std::string_view.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// Splits on a single delimiter character; keeps empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char delim);

/// Splits on any run of whitespace; drops empty fields.
[[nodiscard]] std::vector<std::string_view> split_whitespace(
    std::string_view text);

/// Joins pieces with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view sep);

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// ASCII lowercasing (the corpus is ASCII by construction).
[[nodiscard]] std::string to_lower(std::string_view text);

/// printf-light formatting of a double with fixed decimals.
[[nodiscard]] std::string format_double(double value, int decimals);

/// Human-readable byte count ("1.5 MB").
[[nodiscard]] std::string format_bytes(double bytes);

}  // namespace qadist
