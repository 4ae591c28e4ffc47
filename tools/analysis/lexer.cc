#include "analysis/lexer.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace dtrec::analysis {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

/// True if the quote at s[i] opens a raw string literal: the maximal run
/// of identifier characters directly before it is exactly one of the raw
/// encoding prefixes (R, LR, uR, UR, u8R). An identifier butting against
/// the quote (e.g. a macro called FOOR"...") is not valid C++, so exact
/// prefix matching is safe.
bool OpensRawString(const std::string& s, size_t i) {
  size_t b = i;
  while (b > 0 && IsIdentChar(s[b - 1])) --b;
  const std::string prefix = s.substr(b, i - b);
  return prefix == "R" || prefix == "LR" || prefix == "uR" ||
         prefix == "UR" || prefix == "u8R";
}

/// True if the single quote at s[i] is a C++14 digit separator rather than
/// the start of a character literal: the maximal pp-number-ish run ending
/// at it (identifier chars, dots, earlier separators) starts with a digit
/// (covers 1'000'000, 0xFF'FF, 0b1010'1010) or a dot-digit (.5'0). A run
/// starting with a letter (u'a', L'x') is a char-literal encoding prefix.
bool IsDigitSeparator(const std::string& s, size_t i) {
  if (i == 0 || !IsIdentChar(s[i - 1])) return false;
  size_t b = i;
  while (b > 0 &&
         (IsIdentChar(s[b - 1]) || s[b - 1] == '\'' || s[b - 1] == '.')) {
    --b;
  }
  if (b >= i) return false;
  if (IsDigit(s[b])) return true;
  return s[b] == '.' && b + 1 < s.size() && IsDigit(s[b + 1]);
}

/// True if the newline at s[i] is spliced away by a backslash (optionally
/// through a \r), i.e. a line continuation.
bool ContinuesLine(const std::string& s, size_t i) {
  if (i == 0) return false;
  size_t j = i - 1;
  if (s[j] == '\r' && j > 0) --j;
  return s[j] == '\\';
}

}  // namespace

StripResult StripSource(const std::string& s) {
  StripResult out;
  out.code.assign(s.size(), ' ');
  size_t line = 0;
  auto comment_at = [&out](size_t ln) -> std::string& {
    if (out.comments.size() <= ln) out.comments.resize(ln + 1);
    return out.comments[ln];
  };

  enum State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State st = kCode;
  std::string raw_close;  // e.g. )delim" for the active raw string
  const size_t n = s.size();
  size_t i = 0;
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      out.code[i] = '\n';
      // A backslash directly before the newline splices the lines: the
      // comment (or literal) continues. Strings/chars keep their state
      // anyway; only the line comment needs the explicit check.
      if (st == kLineComment && !ContinuesLine(s, i)) st = kCode;
      ++line;
      ++i;
      continue;
    }
    switch (st) {
      case kCode: {
        if (c == '/' && i + 1 < n && s[i + 1] == '/') {
          st = kLineComment;
          i += 2;
          break;
        }
        if (c == '/' && i + 1 < n && s[i + 1] == '*') {
          st = kBlockComment;
          i += 2;
          break;
        }
        if (c == '"') {
          if (OpensRawString(s, i)) {
            size_t d = i + 1;
            while (d < n && s[d] != '(' && s[d] != '\n') ++d;
            raw_close = ")" + s.substr(i + 1, d - (i + 1)) + "\"";
            st = kRawString;
            i = d < n ? d + 1 : n;
          } else {
            st = kString;
            ++i;
          }
          break;
        }
        if (c == '\'') {
          if (IsDigitSeparator(s, i)) {
            out.code[i] = c;
            ++i;
          } else {
            st = kChar;
            ++i;
          }
          break;
        }
        out.code[i] = c;
        ++i;
        break;
      }
      case kLineComment:
        comment_at(line).push_back(c);
        ++i;
        break;
      case kBlockComment:
        if (c == '*' && i + 1 < n && s[i + 1] == '/') {
          st = kCode;
          i += 2;
        } else {
          comment_at(line).push_back(c);
          ++i;
        }
        break;
      case kString:
      case kChar: {
        const char close = st == kString ? '"' : '\'';
        if (c == '\\' && i + 1 < n) {
          // Never consume a newline as the escaped character: the top of
          // the loop must see it so line accounting (and the spliced
          // continuation) stay exact.
          i += s[i + 1] == '\n' ? 1 : 2;
        } else {
          if (c == close) st = kCode;
          ++i;
        }
        break;
      }
      case kRawString:
        if (s.compare(i, raw_close.size(), raw_close) == 0) {
          st = kCode;
          i += raw_close.size();
        } else {
          ++i;
        }
        break;
    }
  }
  return out;
}

std::vector<Token> Lex(const std::string& code) {
  // Two- and three-char punctuators, longest first (maximal munch).
  static const std::vector<std::string> kPuncts = {
      "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>",
      "<=",  ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=",
      "%=",  "&=",  "|=",  "^=",
  };
  std::vector<Token> tokens;
  const size_t n = code.size();
  size_t line = 1;
  size_t line_start = 0;
  size_t i = 0;
  while (i < n) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      line_start = ++i;
      continue;
    }
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    const size_t col = i - line_start + 1;
    if (IsIdentStart(c)) {
      const size_t b = i;
      while (i < n && IsIdentChar(code[i])) ++i;
      tokens.push_back({TokKind::kIdent, code.substr(b, i - b), line, col});
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(code[i + 1]))) {
      const size_t b = i;
      while (i < n) {
        const char d = code[i];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++i;
          continue;
        }
        if ((d == '+' || d == '-') && i > b &&
            (code[i - 1] == 'e' || code[i - 1] == 'E' ||
             code[i - 1] == 'p' || code[i - 1] == 'P')) {
          ++i;
          continue;
        }
        break;
      }
      tokens.push_back({TokKind::kNumber, code.substr(b, i - b), line, col});
      continue;
    }
    bool matched = false;
    for (const std::string& p : kPuncts) {
      if (code.compare(i, p.size(), p) == 0) {
        tokens.push_back({TokKind::kPunct, p, line, col});
        i += p.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      tokens.push_back({TokKind::kPunct, std::string(1, c), line, col});
      ++i;
    }
  }
  return tokens;
}

AllowParse ParseAllowComments(const std::vector<std::string>& comments,
                              const std::vector<std::string>& known_rules) {
  static const std::string tag = "dtrec-analyze:";
  AllowParse out;
  for (size_t ln0 = 0; ln0 < comments.size(); ++ln0) {
    const std::string& text = comments[ln0];
    size_t pos = text.find(tag);
    while (pos != std::string::npos) {
      const size_t p = text.find("allow(", pos + tag.size());
      const size_t end =
          p == std::string::npos ? std::string::npos : text.find(')', p + 6);
      if (p == std::string::npos || end == std::string::npos) break;
      std::string inner = text.substr(p + 6, end - (p + 6));
      std::replace(inner.begin(), inner.end(), ',', ' ');
      std::istringstream iss(inner);
      std::string rule;
      while (iss >> rule) {
        if (rule != "all" &&
            std::find(known_rules.begin(), known_rules.end(), rule) ==
                known_rules.end()) {
          out.unknown.emplace_back(ln0 + 1, rule);
          continue;
        }
        out.by_line[ln0 + 1].insert(rule);
      }
      pos = text.find(tag, end);
    }
  }
  return out;
}

bool AllowCovers(const AllowParse& allows, const std::string& rule,
                 size_t line) {
  for (const size_t ln : {line, line > 0 ? line - 1 : 0}) {
    const auto it = allows.by_line.find(ln);
    if (it == allows.by_line.end()) continue;
    if (it->second.count(rule) != 0 || it->second.count("all") != 0) {
      return true;
    }
  }
  return false;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

std::pair<char, std::string> ParseIncludeLine(const std::string& raw_line) {
  size_t i = 0;
  const size_t n = raw_line.size();
  while (i < n && IsSpace(raw_line[i])) ++i;
  if (i >= n || raw_line[i] != '#') return {'\0', ""};
  ++i;
  while (i < n && IsSpace(raw_line[i])) ++i;
  if (raw_line.compare(i, 7, "include") != 0) return {'\0', ""};
  i += 7;
  while (i < n && IsSpace(raw_line[i])) ++i;
  if (i >= n || (raw_line[i] != '<' && raw_line[i] != '"')) return {'\0', ""};
  const char open = raw_line[i];
  const char close = open == '<' ? '>' : '"';
  ++i;
  std::string path;
  while (i < n && raw_line[i] != close) path.push_back(raw_line[i++]);
  return {open, path};
}

}  // namespace dtrec::analysis
