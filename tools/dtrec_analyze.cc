// dtrec_analyze — static analysis for the dtrec tree: propensity taint,
// layering, lock discipline and the lexical idiom rules, plus a check of
// the root .clang-tidy; see tools/analysis/analysis.h for the rule
// catalogue, suppression syntax and baseline grammar.
//
// Usage:
//   dtrec_analyze [--root=DIR] [--baseline=FILE] [--no-baseline]
//                 [--report=FILE] [--sarif=FILE] [--cache=FILE] [path...]
//   dtrec_analyze --validate-sarif=FILE
//
// Paths are root-relative files or directories to scan (default: src
// tools bench tests). The baseline defaults to
// <root>/tools/analysis/analyze_baseline.txt when present. --cache keeps
// per-file results keyed by content hash (own file + paired header/source
// sibling), so unchanged files are not re-analyzed across runs.
// --validate-sarif structurally checks a SARIF file and exits without
// scanning. Exit code 0 = clean/valid, 1 = findings/invalid, 2 = I/O or
// usage error. --report writes the dtrec-analyze-v1 JSON findings list;
// --sarif writes SARIF 2.1.0 for code-scanning upload.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/layering.h"
#include "analysis/lexical.h"

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool HasAnalyzableExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/// The translation-unit sibling sharing the file's stem: foo.h for
/// foo.cc/foo.cpp and foo.cc (or foo.cpp) for foo.h. Empty if absent.
fs::path PairedFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  if (ext == ".h") {
    for (const char* sibling : {".cc", ".cpp"}) {
      fs::path p = path;
      p.replace_extension(sibling);
      if (fs::exists(p)) return p;
    }
    return {};
  }
  fs::path p = path;
  p.replace_extension(".h");
  return fs::exists(p) ? p : fs::path();
}

uint64_t CombineHash(uint64_t a, uint64_t b) {
  return (a ^ b) * 1099511628211ULL + 0x9e3779b97f4a7c15ULL;
}

std::string HexHash(uint64_t h) {
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

// ---------------------------------------------------------------- cache
// Text format, one record per file:
//   dtrec-analyze-cache-v2
//   file <rel_path> <hash-hex>
//   include <line> <0|1> <path>
//   finding <line> <rule> <message to end of line>
// Stale or unparseable caches are discarded wholesale — the cache is an
// accelerator, never a source of truth.

struct CacheEntry {
  std::string hash;
  dtrec::analysis::FileAnalysis analysis;
};

std::map<std::string, CacheEntry> LoadCache(const fs::path& path) {
  std::map<std::string, CacheEntry> cache;
  std::string content;
  if (!ReadFile(path, &content)) return cache;
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != "dtrec-analyze-cache-v2") {
    return cache;
  }
  std::string current;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "file") {
      std::string rel, hash;
      if (!(ls >> rel >> hash)) return {};
      current = rel;
      cache[current].hash = hash;
    } else if (kind == "include" && !current.empty()) {
      size_t ln = 0;
      int quoted = 0;
      std::string inc;
      if (!(ls >> ln >> quoted >> inc)) return {};
      cache[current].analysis.includes.push_back({ln, inc, quoted != 0});
    } else if (kind == "finding" && !current.empty()) {
      size_t ln = 0;
      std::string rule;
      if (!(ls >> ln >> rule)) return {};
      std::string message;
      std::getline(ls, message);
      if (!message.empty() && message.front() == ' ') message.erase(0, 1);
      cache[current].analysis.findings.push_back({current, ln, rule, message});
    } else {
      return {};
    }
  }
  return cache;
}

void StoreCache(const fs::path& path,
                const std::map<std::string, CacheEntry>& cache) {
  // The cache is derived state; losing it to a crash only costs a
  // re-analysis on the next run.
  std::ofstream out(path, std::ios::binary);  // dtrec-analyze: allow(raw-ofstream-write)
  if (!out) return;
  out << "dtrec-analyze-cache-v2\n";
  for (const auto& [rel, entry] : cache) {
    out << "file " << rel << " " << entry.hash << "\n";
    for (const auto& site : entry.analysis.includes) {
      out << "include " << site.line << " " << (site.quoted ? 1 : 0) << " "
          << site.path << "\n";
    }
    for (const auto& f : entry.analysis.findings) {
      out << "finding " << f.line << " " << f.rule << " " << f.message
          << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  bool use_baseline = true;
  std::string report_path;
  std::string sarif_path;
  std::string cache_path;
  std::string validate_sarif_path;
  std::vector<std::string> scan_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg == "--no-baseline") {
      use_baseline = false;
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg.rfind("--cache=", 0) == 0) {
      cache_path = arg.substr(8);
    } else if (arg.rfind("--validate-sarif=", 0) == 0) {
      validate_sarif_path = arg.substr(17);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: dtrec_analyze [--root=DIR] [--baseline=FILE] "
                   "[--no-baseline] [--report=FILE] [--sarif=FILE] "
                   "[--cache=FILE] [path...]\n"
                   "       dtrec_analyze --validate-sarif=FILE\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dtrec_analyze: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      scan_paths.push_back(arg);
    }
  }

  if (!validate_sarif_path.empty()) {
    std::string content;
    if (!ReadFile(validate_sarif_path, &content)) {
      std::cerr << "dtrec_analyze: cannot read '" << validate_sarif_path
                << "'\n";
      return 2;
    }
    const std::string error = dtrec::analysis::ValidateSarif(content);
    if (!error.empty()) {
      std::cerr << "dtrec_analyze: invalid SARIF: " << error << "\n";
      return 1;
    }
    std::cout << "dtrec_analyze: SARIF OK\n";
    return 0;
  }

  if (scan_paths.empty()) scan_paths = {"src", "tools", "bench", "tests"};

  const fs::path root_path(root);
  if (!fs::exists(root_path)) {
    std::cerr << "dtrec_analyze: root '" << root << "' does not exist\n";
    return 2;
  }

  std::vector<fs::path> files;
  for (const std::string& p : scan_paths) {
    const fs::path full = root_path / p;
    if (fs::is_regular_file(full)) {
      files.push_back(full);
    } else if (fs::is_directory(full)) {
      for (const auto& entry : fs::recursive_directory_iterator(full)) {
        if (entry.is_regular_file() && HasAnalyzableExtension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else {
      std::cerr << "dtrec_analyze: path '" << full.string()
                << "' is neither a file nor a directory\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  // Baseline: explicit flag, else the checked-in default when it exists.
  dtrec::analysis::Baseline baseline;
  if (use_baseline) {
    fs::path bp = baseline_path.empty()
                      ? root_path / "tools/analysis/analyze_baseline.txt"
                      : fs::path(baseline_path);
    std::string content;
    if (ReadFile(bp, &content)) {
      baseline = dtrec::analysis::ParseBaseline(content);
      if (!baseline.errors.empty()) {
        for (const std::string& e : baseline.errors) {
          std::cerr << "dtrec_analyze: " << bp.string() << ": " << e << "\n";
        }
        return 2;
      }
    } else if (!baseline_path.empty()) {
      std::cerr << "dtrec_analyze: cannot read baseline '" << bp.string()
                << "'\n";
      return 2;
    }
  }

  std::map<std::string, CacheEntry> cache;
  if (!cache_path.empty()) cache = LoadCache(cache_path);

  std::map<std::string, std::vector<dtrec::analysis::IncludeSite>>
      includes_by_file;
  std::vector<dtrec::analysis::Finding> findings;
  std::map<std::string, CacheEntry> new_cache;
  size_t cache_hits = 0;

  for (const fs::path& file : files) {
    std::string content;
    if (!ReadFile(file, &content)) {
      std::cerr << "dtrec_analyze: cannot read '" << file.string() << "'\n";
      return 2;
    }
    std::string paired_content;
    const fs::path paired = PairedFile(file);
    if (!paired.empty()) ReadFile(paired, &paired_content);

    const std::string rel = fs::relative(file, root_path).generic_string();
    const std::string hash =
        HexHash(CombineHash(dtrec::analysis::HashContent(content),
                            dtrec::analysis::HashContent(paired_content)));

    dtrec::analysis::FileAnalysis analysis;
    const auto it = cache.find(rel);
    if (it != cache.end() && it->second.hash == hash) {
      analysis = it->second.analysis;
      ++cache_hits;
    } else {
      analysis = dtrec::analysis::AnalyzeFile(rel, content, paired_content);
    }
    new_cache[rel] = {hash, analysis};
    includes_by_file[rel] = analysis.includes;
    findings.insert(findings.end(), analysis.findings.begin(),
                    analysis.findings.end());
  }

  std::string tidy;
  if (ReadFile(root_path / ".clang-tidy", &tidy)) {
    auto tidy_findings =
        dtrec::analysis::AnalyzeClangTidyConfig(".clang-tidy", tidy);
    findings.insert(findings.end(), tidy_findings.begin(),
                    tidy_findings.end());
  } else {
    findings.push_back({".clang-tidy", 1, "clang-tidy-config",
                        ".clang-tidy is missing from the repo root"});
  }

  auto layering =
      dtrec::analysis::AnalyzeLayering(includes_by_file, baseline.edges);
  findings.insert(findings.end(), layering.begin(), layering.end());

  size_t suppressed = 0;
  findings = dtrec::analysis::ApplyBaseline(baseline, std::move(findings),
                                            &suppressed);
  std::sort(findings.begin(), findings.end(),
            [](const dtrec::analysis::Finding& a,
               const dtrec::analysis::Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });

  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "dtrec_analyze: " << findings.size() << " finding(s) in "
            << files.size() << " file(s) scanned (" << cache_hits
            << " cached, " << suppressed << " baselined)\n";

  if (!cache_path.empty()) StoreCache(cache_path, new_cache);

  if (!report_path.empty()) {
    // Derived output; re-running the analyzer recreates it.
    std::ofstream out(report_path, std::ios::binary);  // dtrec-analyze: allow(raw-ofstream-write)
    if (!out) {
      std::cerr << "dtrec_analyze: cannot write report '" << report_path
                << "'\n";
      return 2;
    }
    out << dtrec::analysis::FindingsToJson(findings, suppressed);
  }
  if (!sarif_path.empty()) {
    // Derived output; re-running the analyzer recreates it.
    std::ofstream out(sarif_path, std::ios::binary);  // dtrec-analyze: allow(raw-ofstream-write)
    if (!out) {
      std::cerr << "dtrec_analyze: cannot write SARIF '" << sarif_path
                << "'\n";
      return 2;
    }
    out << dtrec::analysis::FindingsToSarif(findings);
  }
  return findings.empty() ? 0 : 1;
}
