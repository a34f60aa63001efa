// The one reader and writer of every text file and number in the tree:
// route files, daemon configs, scenario corpora and tool flags all go
// through these helpers, so they reject malformed input the same way.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace cluert {

// The whole file, or nullopt when it cannot be opened.
std::optional<std::string> readFile(const std::string& path);

// Writes `content` to `path`, returning false (and possibly leaving a
// partial file behind) on I/O failure.
bool writeFile(const std::string& path, std::string_view content);

// Yields the non-empty lines of a text that do not start with '#', with a
// trailing '\r' removed.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  // Next non-empty, non-comment line; nullopt at end of input.
  std::optional<std::string_view> next() {
    while (pos_ < text_.size()) {
      std::size_t eol = text_.find('\n', pos_);
      if (eol == std::string_view::npos) eol = text_.size();
      std::string_view line = text_.substr(pos_, eol - pos_);
      pos_ = eol + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty() || line.front() == '#') continue;
      return line;
    }
    return std::nullopt;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

// Splits on single spaces. Returns empty vector only for an empty line.
std::vector<std::string_view> fields(std::string_view line);

// A decimal number that fills `s` and fits in T. The first byte must be a
// digit, so a sign, a blank, "inf" and "nan" are all rejected, as are a
// trailing byte and a value outside T. A floating-point T also reads a
// fraction and an exponent ("0.25", "1e3").
template <typename T>
std::optional<T> parseNumber(std::string_view s) {
  if (s.empty() || s.front() < '0' || s.front() > '9') return std::nullopt;
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace cluert
