#include "analysis/lexical.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

namespace dtrec::analysis {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<size_t> LineStarts(const std::string& s) {
  std::vector<size_t> starts{0};
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

size_t LineOf(const std::vector<size_t>& starts, size_t pos) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<size_t>(it - starts.begin());  // 1-based
}

// ---------------------------------------------------------------------------
// Individual rules. Each scans the scrubbed code (comments/strings blanked,
// include lines additionally blanked where noted) and appends findings.

void CheckIdentifierRules(const std::string& rel_path, const std::string& code,
                          const std::vector<size_t>& starts, bool is_test,
                          std::vector<Finding>* findings) {
  static const std::set<std::string> kBannedRand = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
      "random_shuffle"};
  static const std::set<std::string> kBannedAlloc = {"new", "malloc", "calloc",
                                                     "realloc"};
  const size_t n = code.size();
  size_t i = 0;
  while (i < n) {
    if (!IsIdentStart(code[i])) {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < n && IsIdentChar(code[i])) ++i;
    const std::string id = code.substr(begin, i - begin);
    if (kBannedRand.count(id)) {
      findings->push_back({rel_path, LineOf(starts, begin), "banned-rand",
                           "'" + id +
                               "' is banned; use the seeded dtrec::Rng from "
                               "util/random.h"});
    } else if (!is_test && kBannedAlloc.count(id)) {
      findings->push_back(
          {rel_path, LineOf(starts, begin), "naked-new",
           "naked '" + id +
               "' in non-test code; use value types or standard containers"});
    }
  }
}

void CheckIncludeGuard(const std::string& rel_path,
                       const std::vector<std::string>& code_lines,
                       const std::string& expected,
                       std::vector<Finding>* findings) {
  std::vector<std::pair<size_t, std::string>> nonblank;  // (1-based line, text)
  for (size_t ln0 = 0; ln0 < code_lines.size(); ++ln0) {
    const std::string t = Trim(code_lines[ln0]);
    if (!t.empty()) nonblank.emplace_back(ln0 + 1, t);
    if (t.rfind("#pragma", 0) == 0 && t.find("once") != std::string::npos) {
      findings->push_back({rel_path, ln0 + 1, "include-guard",
                           "#pragma once is banned; use the canonical "
                           "#ifndef " +
                               expected + " guard"});
    }
  }
  const bool ok =
      nonblank.size() >= 2 && nonblank[0].second == "#ifndef " + expected &&
      nonblank[1].second == "#define " + expected;
  if (!ok) {
    findings->push_back({rel_path, nonblank.empty() ? 1 : nonblank[0].first,
                         "include-guard",
                         "header must open with '#ifndef " + expected +
                             "' / '#define " + expected + "'"});
  }
}

void CheckIncludeHygiene(const std::string& rel_path,
                         const std::vector<std::string>& raw_lines,
                         std::vector<Finding>* findings) {
  static const std::vector<std::string> kProjectPrefixes = {
      "src/",    "util/",        "tensor/", "autograd/",    "optim/",
      "data/",   "synth/",       "metrics/", "propensity/", "models/",
      "baselines/", "core/",     "experiments/", "io/",     "diagnostics/",
      "serve/",  "analysis/",    "bench/",  "tests/",      "tools/"};
  for (size_t ln0 = 0; ln0 < raw_lines.size(); ++ln0) {
    const auto [delim, path] = ParseIncludeLine(raw_lines[ln0]);
    if (delim == '\0') continue;
    const size_t line = ln0 + 1;
    if (path.find("..") != std::string::npos) {
      findings->push_back({rel_path, line, "include-hygiene",
                           "include path '" + path + "' uses '..'"});
      continue;
    }
    if (!path.empty() && path.front() == '/') {
      findings->push_back({rel_path, line, "include-hygiene",
                           "absolute include path '" + path + "'"});
      continue;
    }
    if (delim == '"') {
      if (StartsWith(path, "src/")) {
        findings->push_back({rel_path, line, "include-hygiene",
                             "include paths are src/-relative; drop the "
                             "leading src/ from '" +
                                 path + "'"});
      }
    } else {
      for (const std::string& prefix : kProjectPrefixes) {
        if (StartsWith(path, prefix)) {
          findings->push_back({rel_path, line, "include-hygiene",
                               "project header '" + path +
                                   "' included with <>; use \"\" instead"});
          break;
        }
      }
    }
  }
}

void CheckRawOfstream(const std::string& rel_path, const std::string& code,
                      const std::vector<size_t>& starts,
                      std::vector<Finding>* findings) {
  // Durable files must be written through WriteFileAtomic (temp + fsync +
  // rename), or a crash can leave a torn file behind. The atomic writer
  // itself is the one blessed place that opens an output stream; scratch
  // writers elsewhere (console tables, analysis reports) carry an explicit
  // allow-comment acknowledging they are not crash-safe.
  if (rel_path == "src/util/atomic_file.cc") return;
  const size_t n = code.size();
  size_t i = 0;
  while (i < n) {
    if (!IsIdentStart(code[i])) {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < n && IsIdentChar(code[i])) ++i;
    if (code.substr(begin, i - begin) == "ofstream") {
      findings->push_back(
          {rel_path, LineOf(starts, begin), "raw-ofstream-write",
           "raw std::ofstream bypasses crash-atomic writes; use "
           "WriteFileAtomic (util/atomic_file.h) for anything durable"});
    }
  }
}

void CheckRawStderr(const std::string& rel_path, const std::string& code,
                    const std::vector<size_t>& starts,
                    std::vector<Finding>* findings) {
  // Library code logs through DTREC_LOG (util/logging.h) so every message
  // carries severity and a uniform prefix, and FATAL aborts consistently.
  // The logging backend is the one blessed place that touches the real
  // stderr stream; tools/ mains talk to their user directly and are out of
  // scope (the caller only runs this rule for src/).
  if (rel_path == "src/util/logging.cc") return;
  const size_t n = code.size();
  size_t i = 0;
  while (i < n) {
    if (!IsIdentStart(code[i])) {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < n && IsIdentChar(code[i])) ++i;
    const std::string id = code.substr(begin, i - begin);
    if (id == "cerr" || id == "stderr") {
      findings->push_back(
          {rel_path, LineOf(starts, begin), "raw-stderr-logging",
           "raw '" + id +
               "' in library code; log through DTREC_LOG "
               "(util/logging.h) so severity and formatting stay uniform"});
    }
  }
}

void CheckFloatLiterals(const std::string& rel_path, const std::string& code,
                        const std::vector<size_t>& starts,
                        std::vector<Finding>* findings) {
  const size_t n = code.size();
  size_t i = 0;
  while (i < n) {
    const char c = code[i];
    const bool number_start =
        std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(code[i + 1])) != 0);
    if (!number_start) {
      ++i;
      continue;
    }
    const char prev = i > 0 ? code[i - 1] : ' ';
    const size_t begin = i;
    const bool hex =
        c == '0' && i + 1 < n && (code[i + 1] == 'x' || code[i + 1] == 'X');
    size_t j = i;
    while (j < n) {
      const char d = code[j];
      if (IsIdentChar(d) || d == '.' || d == '\'') {
        ++j;
        continue;
      }
      if ((d == '+' || d == '-') && j > begin &&
          (code[j - 1] == 'e' || code[j - 1] == 'E' || code[j - 1] == 'p' ||
           code[j - 1] == 'P')) {
        ++j;
        continue;
      }
      break;
    }
    const std::string token = code.substr(begin, j - begin);
    i = j;
    if (IsIdentChar(prev) || prev == '.') continue;  // inside an identifier
    if (hex) continue;
    if (!token.empty() && (token.back() == 'f' || token.back() == 'F')) {
      findings->push_back({rel_path, LineOf(starts, begin), "float-literal",
                           "float literal '" + token +
                               "' in double-precision code; drop the 'f' "
                               "suffix"});
    }
  }
}

void CheckSignalSafeRegions(const std::string& rel_path,
                            const std::vector<std::string>& comments,
                            const std::vector<std::string>& code_lines,
                            std::vector<Finding>* findings) {
  // Anything on this list either allocates, takes a lock, or buffers
  // through stdio — all deadlock/corruption hazards inside a signal
  // handler. The safe vocabulary (errno, backtrace, relaxed atomics on
  // preallocated slots) is deliberately NOT matched.
  static const std::set<std::string> kSignalUnsafe = {
      "malloc",        "calloc",      "realloc",     "free",
      "new",           "delete",      "printf",      "fprintf",
      "sprintf",       "snprintf",    "vsnprintf",   "vprintf",
      "puts",          "fputs",       "fwrite",      "fopen",
      "fclose",        "fflush",      "cout",        "cerr",
      "clog",          "mutex",       "lock_guard",  "unique_lock",
      "scoped_lock",   "shared_lock", "condition_variable",
      "string",        "vector",      "deque",       "map",
      "unordered_map", "make_shared", "make_unique", "backtrace_symbols",
      "dladdr",        "getenv",      "exit"};
  bool in_region = false;
  size_t region_begin_line = 0;  // 1-based
  for (size_t ln0 = 0; ln0 < comments.size(); ++ln0) {
    // Markers must be standalone comments (`// dtrec-signal-safe-region-
    // begin` on its own line) — prose that merely *mentions* a marker, like
    // the rule's own documentation, must not open a region.
    const std::string comment = Trim(comments[ln0]);
    if (comment == "dtrec-signal-safe-region-begin") {
      in_region = true;
      region_begin_line = ln0 + 1;
      continue;
    }
    if (comment == "dtrec-signal-safe-region-end") {
      in_region = false;
      continue;
    }
    if (!in_region || ln0 >= code_lines.size()) continue;
    const std::string& line = code_lines[ln0];
    const size_t n = line.size();
    size_t i = 0;
    while (i < n) {
      if (!IsIdentStart(line[i])) {
        ++i;
        continue;
      }
      const size_t begin = i;
      while (i < n && IsIdentChar(line[i])) ++i;
      const std::string id = line.substr(begin, i - begin);
      if (kSignalUnsafe.count(id)) {
        findings->push_back(
            {rel_path, ln0 + 1, "signal-unsafe-in-handler",
             "'" + id +
                 "' inside a dtrec-signal-safe region; signal handlers "
                 "may only touch errno, relaxed atomics on preallocated "
                 "slots, and backtrace()"});
      }
    }
  }
  if (in_region) {
    findings->push_back(
        {rel_path, region_begin_line, "signal-unsafe-in-handler",
         "dtrec-signal-safe-region-begin without a matching "
         "dtrec-signal-safe-region-end; the handler's extent must be "
         "explicit for this rule to hold"});
  }
}

}  // namespace

FileKind ClassifyPath(const std::string& rel_path) {
  FileKind kind;
  kind.is_header = EndsWith(rel_path, ".h");
  const size_t slash = rel_path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? rel_path : rel_path.substr(slash + 1);
  const size_t dot = base.find_last_of('.');
  const std::string stem = dot == std::string::npos ? base : base.substr(0, dot);
  kind.is_test = StartsWith(rel_path, "tests/") || EndsWith(stem, "_test");
  if (kind.is_header) {
    std::string path = rel_path;
    if (StartsWith(path, "src/")) path = path.substr(4);
    std::string guard = "DTREC_";
    for (const char c : path) {
      guard.push_back(IsIdentChar(c) && c != '_'
                          ? static_cast<char>(
                                std::toupper(static_cast<unsigned char>(c)))
                          : '_');
    }
    guard.push_back('_');
    kind.expected_guard = guard;
  }
  return kind;
}

std::vector<Finding> AnalyzeLexical(const std::string& rel_path,
                                    const std::string& content,
                                    const StripResult& strip) {
  const FileKind kind = ClassifyPath(rel_path);
  const std::vector<size_t> starts = LineStarts(content);
  const std::vector<std::string> raw_lines = SplitLines(content);
  std::vector<std::string> code_lines = SplitLines(strip.code);

  // Blank include directives out of the scrubbed code so paths like
  // <propensity/propensity.h> never feed the identifier-based rules;
  // CheckIncludeHygiene sees the raw lines instead.
  std::string code = strip.code;
  {
    size_t offset = 0;
    for (size_t ln0 = 0; ln0 < raw_lines.size(); ++ln0) {
      const size_t len = raw_lines[ln0].size();
      if (ParseIncludeLine(raw_lines[ln0]).first != '\0') {
        for (size_t k = 0; k < len; ++k) code[offset + k] = ' ';
        code_lines[ln0].assign(len, ' ');
      }
      offset += len + 1;
    }
  }

  std::vector<Finding> findings;
  CheckIdentifierRules(rel_path, code, starts, kind.is_test, &findings);
  if (kind.is_header && !kind.expected_guard.empty()) {
    CheckIncludeGuard(rel_path, code_lines, kind.expected_guard, &findings);
  }
  CheckIncludeHygiene(rel_path, raw_lines, &findings);
  CheckFloatLiterals(rel_path, code, starts, &findings);
  if (!kind.is_test) CheckRawOfstream(rel_path, code, starts, &findings);
  if (!kind.is_test && StartsWith(rel_path, "src/")) {
    CheckRawStderr(rel_path, code, starts, &findings);
  }
  CheckSignalSafeRegions(rel_path, strip.comments, code_lines, &findings);
  return findings;
}

std::vector<Finding> AnalyzeClangTidyConfig(const std::string& rel_path,
                                            const std::string& content) {
  std::vector<Finding> findings;
  if (Trim(content).empty()) {
    findings.push_back(
        {rel_path, 1, "clang-tidy-config", ".clang-tidy is empty"});
    return findings;
  }
  for (const std::string& key :
       {std::string("Checks:"), std::string("WarningsAsErrors:"),
        std::string("HeaderFilterRegex:")}) {
    bool found = false;
    for (const std::string& line : SplitLines(content)) {
      if (StartsWith(Trim(line), key)) {
        found = true;
        break;
      }
    }
    if (!found) {
      findings.push_back({rel_path, 1, "clang-tidy-config",
                          ".clang-tidy is missing the '" + key + "' key"});
    }
  }
  return findings;
}

}  // namespace dtrec::analysis
