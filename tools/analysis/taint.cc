#include "analysis/taint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

namespace dtrec::analysis {
namespace {

const std::set<std::string>& Sanitizers() {
  static const std::set<std::string> kSanitizers = {
      "ClipPropensity", "SafeInverse", "SoftClip"};
  return kSanitizers;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// Index of the token matching the opener at `open` ('(' ↔ ')', '[' ↔ ']',
/// '{' ↔ '}'), or tokens.size() if unbalanced.
size_t MatchForward(const std::vector<Token>& tokens, size_t open) {
  const std::string& o = tokens[open].text;
  const char* close = o == "(" ? ")" : (o == "[" ? "]" : "}");
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kPunct) continue;
    if (tokens[i].text == o) ++depth;
    if (tokens[i].text == close && --depth == 0) return i;
  }
  return tokens.size();
}

size_t MatchBackward(const std::vector<Token>& tokens, size_t close) {
  const std::string& c = tokens[close].text;
  const char* open = c == ")" ? "(" : (c == "]" ? "[" : "{");
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (tokens[i].kind != TokKind::kPunct) continue;
    if (tokens[i].text == c) ++depth;
    if (tokens[i].text == open && --depth == 0) return i;
  }
  return 0;
}

/// Per-function taint state: explicit per-identifier verdicts layered over
/// the lexicon default. `origin` remembers which source identifier first
/// tainted a variable, for diagnostics.
struct TaintState {
  std::map<std::string, bool> explicit_state;
  std::map<std::string, std::string> origin;

  bool IsTainted(const std::string& id) const {
    const auto it = explicit_state.find(id);
    if (it != explicit_state.end()) return it->second;
    return MatchesPropensityLexicon(id);
  }
  std::string OriginOf(const std::string& id) const {
    const auto it = origin.find(id);
    return it != origin.end() ? it->second : id;
  }
};

/// Scans tokens[b, e) for taint. Sanitizer calls inside the span are
/// skipped wholesale (their results are clean by contract). On a hit,
/// returns the offending identifier via `who`.
bool SpanCarriesTaint(const std::vector<Token>& tokens, size_t b, size_t e,
                      const TaintState& state, std::string* who) {
  for (size_t i = b; i < e && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kIdent) continue;
    if (Sanitizers().count(t.text) != 0 && i + 1 < e &&
        IsPunct(tokens[i + 1], "(")) {
      const size_t close = MatchForward(tokens, i + 1);
      i = close < e ? close : e;
      continue;
    }
    if (state.IsTainted(t.text)) {
      if (who != nullptr) *who = t.text;
      return true;
    }
  }
  return false;
}

/// The primary-expression operand starting at `j` (after a `/` or as a
/// call argument): either a parenthesized expression (span = its inside)
/// or an id-expression chain `a::b.c->d(...)[...]`. Returns [begin, end);
/// empty span for literals.
std::pair<size_t, size_t> ParseOperand(const std::vector<Token>& tokens,
                                       size_t j) {
  const size_t n = tokens.size();
  while (j < n && tokens[j].kind == TokKind::kPunct &&
         (tokens[j].text == "-" || tokens[j].text == "+" ||
          tokens[j].text == "*" || tokens[j].text == "&" ||
          tokens[j].text == "!")) {
    ++j;
  }
  if (j >= n) return {j, j};
  if (IsPunct(tokens[j], "(")) {
    const size_t close = MatchForward(tokens, j);
    return {j + 1, close};
  }
  if (tokens[j].kind != TokKind::kIdent) return {j, j};
  const size_t begin = j;
  ++j;
  while (j < n) {
    if (tokens[j].kind == TokKind::kPunct &&
        (tokens[j].text == "::" || tokens[j].text == "." ||
         tokens[j].text == "->") &&
        j + 1 < n && tokens[j + 1].kind == TokKind::kIdent) {
      j += 2;
      continue;
    }
    if (IsPunct(tokens[j], "(") || IsPunct(tokens[j], "[")) {
      j = MatchForward(tokens, j) + 1;
      continue;
    }
    break;
  }
  return {begin, j};
}

/// True if the `{` at index `i` opens a function (or constructor/lambda-
/// free method) body: the token run before it, skipping cv/ref/specifier
/// noise and a trailing DTREC_REQUIRES(...) annotation, ends in a `)`
/// whose matching `(` is *not* an if/for/while/switch/catch header and
/// not a lambda's parameter list. Taint state resets at these points.
bool OpensFunctionBody(const std::vector<Token>& tokens, size_t i) {
  static const std::set<std::string> kSkippable = {
      "const", "noexcept", "override", "final", "mutable", "&", "&&"};
  size_t j = i;
  while (j > 0) {
    const Token& prev = tokens[j - 1];
    if (kSkippable.count(prev.text) != 0) {
      --j;
      continue;
    }
    break;
  }
  if (j == 0 || !IsPunct(tokens[j - 1], ")")) return false;
  size_t open = MatchBackward(tokens, j - 1);
  // A DTREC_REQUIRES(...) annotation sits between the parameter list and
  // the body; hop over it to the signature's own `)`.
  if (open > 0 && IsIdent(tokens[open - 1], "DTREC_REQUIRES")) {
    size_t k = open - 1;
    while (k > 0) {
      const Token& prev = tokens[k - 1];
      if (kSkippable.count(prev.text) != 0) {
        --k;
        continue;
      }
      break;
    }
    if (k == 0 || !IsPunct(tokens[k - 1], ")")) return false;
    open = MatchBackward(tokens, k - 1);
  }
  if (open == 0) return false;
  const Token& before = tokens[open - 1];
  static const std::set<std::string> kControl = {"if",     "for",   "while",
                                                 "switch", "catch", "return"};
  if (before.kind == TokKind::kIdent && kControl.count(before.text) != 0) {
    return false;
  }
  if (IsPunct(before, "]")) return false;  // lambda: keep enclosing state
  return before.kind == TokKind::kIdent || IsPunct(before, ">");
}

}  // namespace

bool MatchesPropensityLexicon(const std::string& identifier) {
  const std::string low = Lower(identifier);
  if (Sanitizers().count(identifier) != 0) return false;
  return low.find("propensit") != std::string::npos ||
         low.find("p_hat") != std::string::npos ||
         low.find("inv_p") != std::string::npos;
}

std::vector<Finding> AnalyzePropensityTaint(const std::string& rel_path,
                                            const std::vector<Token>& tokens) {
  std::vector<Finding> findings;
  TaintState state;
  const size_t n = tokens.size();

  auto flag = [&](const Token& at, const std::string& sink,
                  const std::string& who) {
    std::string message = "'" + who + "' carries an unclipped propensity " +
                          "into " + sink;
    const std::string origin = state.OriginOf(who);
    if (origin != who) message += " (tainted via '" + origin + "')";
    message += "; clip first (ClipPropensity) or use SafeInverse()";
    findings.push_back({rel_path, at.line, "propensity-taint", message});
  };

  // Statement-wise walk. Statements end at depth-0 `;`, `{` or `}`
  // (depth = parens/brackets, so for-headers stay whole), and at the end
  // of input, so a file's last unterminated statement (a `#define` before
  // a header's closing `#endif`) is scanned too.
  size_t stmt_begin = 0;
  int nest = 0;  // () + [] nesting inside the current statement
  for (size_t i = 0; i <= n; ++i) {
    if (i < n) {
      const Token& t = tokens[i];
      if (IsPunct(t, "(") || IsPunct(t, "[")) {
        ++nest;
        continue;
      }
      if (IsPunct(t, ")") || IsPunct(t, "]")) {
        if (nest > 0) --nest;
        continue;
      }
      const bool ends_statement =
          (IsPunct(t, ";") && nest == 0) || IsPunct(t, "{") || IsPunct(t, "}");
      if (!ends_statement) continue;
    }

    const size_t b = stmt_begin;
    const size_t e = i;  // exclusive of the terminator
    stmt_begin = i + 1;
    nest = 0;

    if (i < n && IsPunct(tokens[i], "{") && OpensFunctionBody(tokens, i)) {
      state = TaintState();
    }

    // --- sinks ------------------------------------------------------
    int depth = 0;
    for (size_t j = b; j < e; ++j) {
      const Token& tok = tokens[j];
      if (tok.kind == TokKind::kPunct) {
        if (tok.text == "(" || tok.text == "[") ++depth;
        if (tok.text == ")" || tok.text == "]") --depth;
      }
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "/" || tok.text == "/=")) {
        const auto [ob, oe] = ParseOperand(tokens, j + 1);
        std::string who;
        if (SpanCarriesTaint(tokens, ob, std::min(oe, e), state, &who)) {
          flag(tok, tok.text == "/" ? "'/'" : "'/='", who);
        }
        continue;
      }
      if (tok.kind == TokKind::kIdent &&
          (tok.text == "log" || tok.text == "pow") && j + 1 < e &&
          IsPunct(tokens[j + 1], "(")) {
        // First argument span: up to the call's matching ')' or its first
        // top-level ','.
        const size_t close = MatchForward(tokens, j + 1);
        size_t arg_end = close;
        int d = 0;
        for (size_t k = j + 2; k < close; ++k) {
          if (tokens[k].kind != TokKind::kPunct) continue;
          if (tokens[k].text == "(" || tokens[k].text == "[") ++d;
          if (tokens[k].text == ")" || tokens[k].text == "]") --d;
          if (tokens[k].text == "," && d == 0) {
            arg_end = k;
            break;
          }
        }
        std::string who;
        if (SpanCarriesTaint(tokens, j + 2, std::min(arg_end, e), state,
                             &who)) {
          flag(tok, "std::" + tok.text + "()", who);
        }
      }
    }

    // --- transfer ---------------------------------------------------
    // First depth-0 assignment operator in the statement.
    depth = 0;
    for (size_t j = b; j < e; ++j) {
      const Token& tok = tokens[j];
      if (tok.kind != TokKind::kPunct) continue;
      if (tok.text == "(" || tok.text == "[") ++depth;
      if (tok.text == ")" || tok.text == "]") --depth;
      if (depth != 0) continue;
      const bool plain = tok.text == "=";
      const bool compound = tok.text == "+=" || tok.text == "-=" ||
                            tok.text == "*=" || tok.text == "/=";
      if (!plain && !compound) continue;
      if (j == b) break;
      // Assignment target: the identifier before the operator; through a
      // closing `]`, the subscripted container (element writes taint the
      // whole container, conservatively).
      size_t lhs = j - 1;
      if (IsPunct(tokens[lhs], "]")) {
        const size_t open = MatchBackward(tokens, lhs);
        if (open == 0) break;
        lhs = open - 1;
      }
      // Through a closing `)` too: Matrix-style element writes m(i, j).
      if (IsPunct(tokens[lhs], ")")) {
        const size_t open = MatchBackward(tokens, lhs);
        if (open == 0) break;
        lhs = open - 1;
      }
      if (tokens[lhs].kind != TokKind::kIdent) break;
      std::string who;
      const bool rhs_tainted =
          SpanCarriesTaint(tokens, j + 1, e, state, &who);
      const std::string& target = tokens[lhs].text;
      if (plain) {
        state.explicit_state[target] = rhs_tainted;
        if (rhs_tainted) {
          state.origin[target] = state.OriginOf(who);
        } else {
          state.origin.erase(target);
        }
      } else if (rhs_tainted && tok.text != "/=") {
        state.explicit_state[target] = true;
        state.origin[target] = state.OriginOf(who);
      }
      break;
    }
  }
  return findings;
}

}  // namespace dtrec::analysis
