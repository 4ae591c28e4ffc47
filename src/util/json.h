#ifndef DTREC_UTIL_JSON_H_
#define DTREC_UTIL_JSON_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

// The one JSON layer: the writers' escaper and number formatter, and the
// pull reader every artifact validator (obs/telemetry_validate, the
// analyzer's SARIF check, the benchmark's result parser) walks documents
// with. Header-only and standard-library-only, so tools/analysis uses it
// without linking the dtrec library.

namespace dtrec::json {

/// Body of a JSON string literal (no surrounding quotes): `"` and `\`
/// are escaped, newline and tab get their short forms, every other byte
/// below 0x20 becomes \u00XX; all other bytes pass through unchanged.
inline std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// A double at round-trip precision. JSON has no NaN or infinity
/// literals, so a non-finite value is written as 0: one bad gauge must
/// not make a whole document unreadable.
inline std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Recursive-descent pull reader over one JSON text, strict to RFC 8259:
/// numbers follow the JSON grammar and must be finite (no nan, inf, hex
/// or leading '+'), strings decode their escapes (\uXXXX, surrogate
/// pairs included, to UTF-8) and may not hold raw bytes below 0x20. Any
/// violation clears `ok`; callers read the values they need and check
/// `ok` (and `AtEnd()` for a whole document) once at the end.
struct Cursor {
  /// Values SkipValue may nest before it rejects the document instead of
  /// recursing further (RFC 8259 §9 lets a parser bound nesting); the
  /// repo's artifacts nest fewer than ten levels.
  static constexpr int kMaxDepth = 256;

  const std::string& s;
  size_t i = 0;
  bool ok = true;
  int depth = 0;  ///< SkipValue nesting at the cursor

  void SkipWs() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return i < s.size() && s[i] == c;
  }
  /// True when only whitespace is left.
  bool AtEnd() {
    SkipWs();
    return i >= s.size();
  }

  std::string ParseString() {
    std::string out;
    if (!Eat('"')) return out;
    while (i < s.size()) {
      const char c = s[i++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i >= s.size()) break;
      const char e = s[i++];
      if (e == '"' || e == '\\' || e == '/') {
        out.push_back(e);
      } else if (e == 'b') {
        out.push_back('\b');
      } else if (e == 'f') {
        out.push_back('\f');
      } else if (e == 'n') {
        out.push_back('\n');
      } else if (e == 'r') {
        out.push_back('\r');
      } else if (e == 't') {
        out.push_back('\t');
      } else if (e != 'u' || !AppendCodePoint(&out)) {
        break;
      }
    }
    ok = false;
    return out;
  }

  double ParseNumber() {
    SkipWs();
    const size_t begin = i;
    if (i < s.size() && s[i] == '-') ++i;
    if (i < s.size() && s[i] == '0') {
      ++i;
    } else if (!Digits()) {
      return Fail();
    }
    if (i < s.size() && s[i] == '.') {
      ++i;
      if (!Digits()) return Fail();
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (!Digits()) return Fail();
    }
    const double v = std::strtod(s.substr(begin, i - begin).c_str(), nullptr);
    return std::isfinite(v) ? v : Fail();
  }

  void SkipValue() {
    SkipWs();
    if (i >= s.size() || depth >= kMaxDepth) {
      ok = false;
      return;
    }
    const char c = s[i];
    if (c == '"') {
      ParseString();
    } else if (c == '{' || c == '[') {
      ++depth;
      if (c == '{') {
        ParseObject([this](const std::string&) { SkipValue(); });
      } else {
        ParseArray([this] { SkipValue(); });
      }
      --depth;
    } else if (s.compare(i, 4, "true") == 0) {
      i += 4;
    } else if (s.compare(i, 5, "false") == 0) {
      i += 5;
    } else if (s.compare(i, 4, "null") == 0) {
      i += 4;
    } else {
      ParseNumber();
    }
  }

  /// Calls `fn(key)` for each member of the object at the cursor; `fn`
  /// must consume the member's value through the cursor.
  template <typename Fn>
  void ParseObject(Fn&& fn) {
    if (!Eat('{')) return;
    if (Peek('}')) {
      Eat('}');
      return;
    }
    while (ok) {
      const std::string key = ParseString();
      if (!Eat(':')) return;
      fn(key);
      if (Peek(',')) {
        Eat(',');
        continue;
      }
      Eat('}');
      return;
    }
  }

  /// Calls `fn()` for each element of the array at the cursor; `fn` must
  /// consume the element through the cursor.
  template <typename Fn>
  void ParseArray(Fn&& fn) {
    if (!Eat('[')) return;
    if (Peek(']')) {
      Eat(']');
      return;
    }
    while (ok) {
      fn();
      if (Peek(',')) {
        Eat(',');
        continue;
      }
      Eat(']');
      return;
    }
  }

 private:
  double Fail() {
    ok = false;
    return 0.0;
  }
  bool Digits() {
    const size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > from;
  }
  /// The four hex digits of a \u escape, or -1.
  int32_t Hex4() {
    if (s.size() - i < 4) return -1;
    int32_t v = 0;
    for (size_t end = i + 4; i < end; ++i) {
      const char h = s[i];
      const int digit = h >= '0' && h <= '9'   ? h - '0'
                        : h >= 'a' && h <= 'f' ? h - 'a' + 10
                        : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                               : -1;
      if (digit < 0) return -1;
      v = v * 16 + digit;
    }
    return v;
  }
  /// Decodes the code point after "\u" (joining a surrogate pair) and
  /// appends it as UTF-8; false on a malformed or lone surrogate.
  bool AppendCodePoint(std::string* out) {
    int32_t cp = Hex4();
    if (cp < 0 || (cp >= 0xDC00 && cp < 0xE000)) return false;
    if (cp >= 0xD800 && cp < 0xDC00) {
      if (s.compare(i, 2, "\\u") != 0) return false;
      i += 2;
      const int32_t low = Hex4();
      if (low < 0xDC00 || low >= 0xE000) return false;
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    const auto byte = [out](int32_t b) {
      out->push_back(static_cast<char>(b));
    };
    if (cp < 0x80) {
      byte(cp);
    } else if (cp < 0x800) {
      byte(0xC0 | (cp >> 6));
      byte(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      byte(0xE0 | (cp >> 12));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    } else {
      byte(0xF0 | (cp >> 18));
      byte(0x80 | ((cp >> 12) & 0x3F));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    }
    return true;
  }
};

}  // namespace dtrec::json

#endif  // DTREC_UTIL_JSON_H_
