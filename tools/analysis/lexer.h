#ifndef DTREC_TOOLS_ANALYSIS_LEXER_H_
#define DTREC_TOOLS_ANALYSIS_LEXER_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

// Lexical layer of dtrec_analyze, shared by every pass. Two levels of
// service:
//
//   StripSource()  blanks comments and string/char literals out of a C++
//                  translation unit while preserving newlines (so byte
//                  offsets map back to source lines) and collecting
//                  per-line comment text for suppression parsing. Survives
//                  raw string literals R"delim(...)delim" (including the
//                  LR/uR/UR/u8R encoding prefixes), digit separators in
//                  any numeric base (1'000'000, 0xFF'FF), and backslash
//                  line continuations inside line comments and string
//                  literals.
//
//   Lex()          tokenizes stripped code into identifiers, numbers and
//                  punctuators with 1-based line/column positions —
//                  enough structure for the dataflow and lock-discipline
//                  passes without dragging in a real C++ frontend.
//
// The `dtrec-analyze:` allow-comment suppressions are parsed here too,
// with the line helpers the passes share.

namespace dtrec::analysis {

struct StripResult {
  /// Same length as the input; comments and literal bodies replaced by
  /// spaces, newlines kept in place.
  std::string code;
  /// Comment text collected per 0-based source line.
  std::vector<std::string> comments;
};

StripResult StripSource(const std::string& content);

enum class TokKind { kIdent, kNumber, kPunct };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  size_t line = 0;  ///< 1-based
  size_t col = 0;   ///< 1-based
};

/// Tokenizes stripped code (run StripSource first; literal bodies are
/// already blank). Multi-char punctuators (::, ->, /=, ==, ...) come out
/// as single tokens.
std::vector<Token> Lex(const std::string& stripped_code);

/// Per-line rule suppressions parsed from comments. An allowance covers
/// its own line and the line directly below it; "all" matches any rule.
struct AllowParse {
  std::map<size_t, std::set<std::string>> by_line;  ///< 1-based line → rules
  /// allow() entries naming rules outside `known_rules`: (1-based line,
  /// offending name), reported as `analyze-usage`.
  std::vector<std::pair<size_t, std::string>> unknown;
};

/// Scans `comments` (as produced by StripSource) for markers: the tag
/// "dtrec-analyze:" followed by allow() with a comma-separated rule list.
AllowParse ParseAllowComments(const std::vector<std::string>& comments,
                              const std::vector<std::string>& known_rules);

/// True if `rule` is allowed on `line` (1-based): an allowance on the line
/// itself or the line above covers it.
bool AllowCovers(const AllowParse& allows, const std::string& rule,
                 size_t line);

/// `s` without leading and trailing whitespace.
std::string Trim(const std::string& s);

/// `s` split on '\n'; a trailing newline yields a final empty line, so
/// index i is always 0-based source line i.
std::vector<std::string> SplitLines(const std::string& s);

/// "#include <path>" / "#include \"path\"" → (delimiter, path); the
/// delimiter is '\0' when the line is not an include directive.
std::pair<char, std::string> ParseIncludeLine(const std::string& raw_line);

}  // namespace dtrec::analysis

#endif  // DTREC_TOOLS_ANALYSIS_LEXER_H_
