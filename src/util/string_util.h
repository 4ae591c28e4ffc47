#ifndef DTREC_UTIL_STRING_UTIL_H_
#define DTREC_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace dtrec {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the single character `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Fixed-precision decimal rendering, e.g. FormatDouble(0.12345, 4) ==
/// "0.1234" — used by the table writer so experiment output matches the
/// paper's column formats.
std::string FormatDouble(double v, int precision);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// How a `key=value` argument is read: a count (later cast to an unsigned
/// integer), any finite real, or free text.
enum class ArgKind { kCount, kReal, kText };

/// The one rule for `key=value` arguments, shared by the command-line
/// tools and ApplyOverride: a numeric value must parse whole (strtod with
/// an end check) to a finite double, and a count must also lie in
/// [0, 2^53], where its cast to an integer is defined and exact. Text is
/// accepted as is. The InvalidArgument message names the key and value.
Status CheckArg(const std::string& key, const std::string& value,
                ArgKind kind);

}  // namespace dtrec

#endif  // DTREC_UTIL_STRING_UTIL_H_
