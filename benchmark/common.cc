#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "obs/trace.h"

namespace dtrec::perf {

void RunResult::Set(const std::string& name, double value) {
  for (auto& [key, v] : metrics) {
    if (key == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  errors.push_back(what);
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ParseBool(JsonCursor* cur) {
  cur->SkipWs();
  if (cur->s.compare(cur->i, 4, "true") == 0) {
    cur->i += 4;
    return true;
  }
  if (cur->s.compare(cur->i, 5, "false") != 0) cur->ok = false;
  cur->i += 5;
  return false;
}

bool ParseTrace(const std::string& json, std::vector<Span>* spans,
                std::string* events) {
  JsonCursor cur{json};
  double dropped = -1.0;
  cur.ParseObject([&](const std::string& key) {
    if (key == "droppedEvents") {
      dropped = cur.ParseNumber();
    } else if (key == "traceEvents") {
      cur.SkipWs();
      const size_t begin = cur.i + 1;  // past '['
      size_t count = 0;
      ParseArray(&cur, [&] {
        Span span;
        cur.ParseObject([&](const std::string& field) {
          if (field == "name") {
            span.name = cur.ParseString();
          } else if (field == "ts") {
            span.ts_us = cur.ParseNumber();
          } else if (field == "dur") {
            span.dur_us = cur.ParseNumber();
          } else if (field == "tid") {
            span.tid = static_cast<uint32_t>(cur.ParseNumber());
          } else {
            cur.SkipValue();
          }
        });
        spans->push_back(std::move(span));
        ++count;
      });
      if (cur.ok && count > 0) {
        if (!events->empty()) *events += ",";
        events->append(json, begin, cur.i - 1 - begin);  // before ']'
      }
    } else {
      cur.SkipValue();
    }
  });
  return cur.ok && dropped == 0.0;
}

double FoldedSpans::Self(const std::string& name) const {
  const auto it = self_us.find(name);
  return it == self_us.end() ? 0.0 : it->second;
}

uint64_t FoldedSpans::Count(const std::string& name) const {
  const auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

void FoldedSpans::Add(const FoldedSpans& other) {
  for (const auto& [name, us] : other.self_us) self_us[name] += us;
  for (const auto& [name, n] : other.count) count[name] += n;
  step_tree_self_us += other.step_tree_self_us;
  step_total_us += other.step_total_us;
}

FoldedSpans FoldSpans(std::vector<Span> spans) {
  // Spans on one thread nest strictly (they are RAII scopes), so sorting by
  // start — longest first on ties — puts every parent before its children
  // and a stack of open spans recovers the tree.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  struct Open {
    const Span* span;
    double end_us;
    double child_us;
    bool in_step;
  };
  FoldedSpans folded;
  std::vector<Open> stack;
  const auto close = [&folded](const Open& open) {
    const double self = open.span->dur_us - open.child_us;
    folded.self_us[open.span->name] += self;
    ++folded.count[open.span->name];
    if (open.in_step) folded.step_tree_self_us += self;
    if (open.span->name == "train_step") {
      folded.step_total_us += open.span->dur_us;
    }
  };
  uint32_t tid = 0;
  for (const Span& span : spans) {
    if (span.dur_us <= 0.0) continue;  // zero-length annotations
    if (span.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) close(stack.back());
      tid = span.tid;
    }
    // Timestamps carry nanosecond resolution; the slack absorbs the
    // rounding of the printed microsecond values.
    while (!stack.empty() && span.ts_us + 1e-4 >= stack.back().end_us) {
      close(stack.back());
      stack.pop_back();
    }
    bool in_step = span.name == "train_step";
    if (!stack.empty()) {
      stack.back().child_us += span.dur_us;
      in_step = in_step || stack.back().in_step;
    }
    stack.push_back({&span, span.ts_us + span.dur_us, 0.0, in_step});
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());
  return folded;
}

void CollectTrace(RunResult* result, FoldedSpans* into) {
  std::vector<Span> spans;
  const bool parsed =
      ParseTrace(obs::FlushTraceJson(), &spans, &result->trace_events);
  obs::ClearTrace();
  result->Check(parsed, "trace is malformed or wrapped its ring");
  into->Add(FoldSpans(std::move(spans)));
}

}  // namespace dtrec::perf
