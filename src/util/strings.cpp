#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace vmp::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool parse_int64(std::string_view text, long long* out) {
  text = trim(text);
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc{} && ptr == last;
}

bool parse_double(std::string_view text, double* out) {
  text = trim(text);
  if (text.empty()) return false;
  // std::from_chars<double> is available in libstdc++ 11+; use strtod with a
  // bounded copy for portability across toolchains.
  std::string copy(text);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return false;
  *out = v;
  return true;
}

std::string format_double(double v) {
  // The bytes of printf: "%.0f" for integers below 1e15, else the first
  // "%.*g" precision that reads back as v ("%.17g" always does).
  char buf[64];
  char* const end = buf + sizeof buf;
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::string(buf, std::to_chars(buf, end, v,
                                          std::chars_format::fixed, 0)
                                .ptr);
  }
  // No precision below the digit count of the shortest round-tripping
  // string can read back as v, so the search starts there.  It may need
  // one more digit: "%.*g" rounds to nearest, while the shortest string
  // may round the other way.
  const char* const shortest =
      std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buf; c != shortest && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (precision = std::max(precision, 1); precision < 17; ++precision) {
    char* const last =
        std::to_chars(buf, end, v, std::chars_format::general, precision).ptr;
    double back = 0.0;
    const auto [ptr, ec] = std::from_chars(buf, last, back);
    if (ec == std::errc() && back == v) return std::string(buf, last);
  }
  return std::string(
      buf, std::to_chars(buf, end, v, std::chars_format::general, 17).ptr);
}

}  // namespace vmp::util
