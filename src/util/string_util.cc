#include "util/string_util.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace dtrec {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    // vsnprintf writes the terminating NUL into needed+1 bytes; data() of a
    // non-const string has room for it since C++11.
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         (s[begin] == ' ' || s[begin] == '\t' || s[begin] == '\n' ||
          s[begin] == '\r')) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t' ||
                         s[end - 1] == '\n' || s[end - 1] == '\r')) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string FormatDouble(double v, int precision) {
  return StrFormat("%.*f", precision, v);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Status CheckArg(const std::string& key, const std::string& value,
                ArgKind kind) {
  if (kind == ArgKind::kText) return Status::OK();
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !std::isfinite(v)) {
    return Status::InvalidArgument(StrFormat(
        "%s=%s is not a finite number", key.c_str(), value.c_str()));
  }
  if (kind == ArgKind::kCount && !(v >= 0.0 && v <= 0x1p53)) {
    return Status::InvalidArgument(StrFormat(
        "%s=%s must be a non-negative count", key.c_str(), value.c_str()));
  }
  return Status::OK();
}

}  // namespace dtrec
