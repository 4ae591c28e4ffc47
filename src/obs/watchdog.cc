#include "obs/watchdog.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/json.h"
#include "util/string_util.h"

namespace dtrec::obs {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

std::vector<std::string> SplitTrimmed(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      parts.push_back(Trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(Trim(cur));
  return parts;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(*out);
}

bool IsHistogramStat(const std::string& stat) {
  return stat == "p50" || stat == "p95" || stat == "p99" || stat == "p999" ||
         stat == "max" || stat == "mean";
}

Status ParseExpr(const std::string& raw, WatchRule* rule) {
  std::string expr = raw;
  if (expr.rfind("drift:", 0) == 0) {
    rule->drift = true;
    expr = Trim(expr.substr(6));
  }
  rule->expr = expr;
  const size_t colon = expr.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= expr.size()) {
    return Status::InvalidArgument("metric expression needs '<kind>:<name>'");
  }
  const std::string head = expr.substr(0, colon);
  const std::string body = Trim(expr.substr(colon + 1));
  if (IsHistogramStat(head)) {
    rule->kind = WatchRule::Kind::kHistogramStat;
    rule->stat = head;
    rule->metric_a = body;
  } else if (head == "rate") {
    rule->kind = WatchRule::Kind::kCounterRate;
    const size_t slash = body.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= body.size()) {
      return Status::InvalidArgument(
          "rate: needs '<counter_a>/<counter_b>'");
    }
    rule->metric_a = Trim(body.substr(0, slash));
    rule->metric_b = Trim(body.substr(slash + 1));
  } else if (head == "delta") {
    rule->kind = WatchRule::Kind::kCounterDelta;
    rule->metric_a = body;
  } else if (head == "value") {
    rule->kind = WatchRule::Kind::kGaugeValue;
    rule->metric_a = body;
  } else {
    return Status::InvalidArgument(
        "unknown metric kind '" + head +
        "' (want p50/p95/p99/p999/max/mean/rate/delta/value)");
  }
  if (rule->metric_a.empty()) {
    return Status::InvalidArgument("empty metric name");
  }
  return Status::OK();
}

}  // namespace

Status ParseWatchdogRules(const std::string& text,
                          std::vector<WatchRule>* rules) {
  rules->clear();
  size_t line_no = 0;
  std::string line;
  std::istringstream is(text);
  while (std::getline(is, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument(
          StrFormat("watchdog rules line %zu: %s", line_no, why.c_str()));
    };

    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return fail("missing '<name>:' prefix");
    }
    WatchRule rule;
    rule.name = Trim(line.substr(0, colon));
    const std::vector<std::string> parts =
        SplitTrimmed(line.substr(colon + 1), ',');
    if (parts.size() != 4) {
      return fail("want '<name>: <metric>, <window_s>, <threshold>, "
                  "<above|below>'");
    }
    if (Status st = ParseExpr(parts[0], &rule); !st.ok()) {
      return fail(st.message());
    }
    if (!ParseDouble(parts[1], &rule.window_s) || rule.window_s <= 0.0) {
      return fail("window_s must be a positive number");
    }
    if (!ParseDouble(parts[2], &rule.threshold)) {
      return fail("threshold must be a number");
    }
    if (parts[3] == "above") {
      rule.direction = WatchRule::Direction::kAbove;
    } else if (parts[3] == "below") {
      rule.direction = WatchRule::Direction::kBelow;
    } else {
      return fail("direction must be 'above' or 'below'");
    }
    rules->push_back(std::move(rule));
  }
  return Status::OK();
}

std::string AlertJsonLine(const AlertEvent& event) {
  std::ostringstream os;
  os << "{\"schema\": \"dtrec-alerts-v1\", \"rule\": \""
     << json::Escape(event.rule) << "\", \"expr\": \""
     << json::Escape(event.expr) << "\", \"context\": \""
     << json::Escape(event.context)
     << "\", \"value\": " << json::Number(event.value)
     << ", \"threshold\": " << json::Number(event.threshold)
     << ", \"direction\": \"" << json::Escape(event.direction)
     << "\", \"window_s\": " << json::Number(event.window_s)
     << ", \"baseline\": "
     << (event.has_baseline ? json::Number(event.baseline) : "null")
     << ", \"at_s\": " << json::Number(event.at_s) << "}";
  return os.str();
}

Watchdog::Watchdog(MetricsRegistry* registry, std::vector<WatchRule> rules)
    : Watchdog(registry, std::move(rules), Options()) {}

Watchdog::Watchdog(MetricsRegistry* registry, std::vector<WatchRule> rules,
                   Options options)
    : registry_(registry), options_(std::move(options)) {
  clock_ = options_.clock;
  if (!clock_) {
    clock_ = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.alerts_path.empty()) {
    // Truncate up front: an alert-free run must leave an (empty, valid)
    // artifact rather than no file.
    sink_.open(options_.alerts_path, std::ios::trunc);
  }
  states_.reserve(rules.size());
  for (WatchRule& rule : rules) {
    RuleState state;
    switch (rule.kind) {
      case WatchRule::Kind::kHistogramStat:
        state.hist = registry_->GetHistogram(rule.metric_a);
        break;
      case WatchRule::Kind::kCounterRate:
        state.counter_a = registry_->GetCounter(rule.metric_a);
        state.counter_b = registry_->GetCounter(rule.metric_b);
        break;
      case WatchRule::Kind::kCounterDelta:
        state.counter_a = registry_->GetCounter(rule.metric_a);
        break;
      case WatchRule::Kind::kGaugeValue:
        state.gauge = registry_->GetGauge(rule.metric_a);
        break;
    }
    state.rule = std::move(rule);
    states_.push_back(std::move(state));
  }
}

Watchdog::~Watchdog() { Stop(); }

Status Watchdog::Start(double period_s) {
  if (period_s <= 0.0) {
    return Status::InvalidArgument("watchdog period must be positive");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("watchdog already started");
    }
    started_ = true;
    stop_ = false;
  }
  thread_ = std::thread([this, period_s] { PeriodicLoop(period_s); });
  return Status::OK();
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void Watchdog::PeriodicLoop(double period_s) {
  const auto period = std::chrono::duration<double>(period_s);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    Poll();
    lock.lock();
  }
}

void Watchdog::SetContext(const std::string& context) {
  std::lock_guard<std::mutex> lock(mu_);
  context_ = context;
}

size_t Watchdog::Poll() { return Evaluate(/*force=*/false, clock_()); }

size_t Watchdog::ForceEvaluate() { return Evaluate(/*force=*/true, clock_()); }

bool Watchdog::ComputeValue(RuleState* state, double* value) {
  switch (state->rule.kind) {
    case WatchRule::Kind::kHistogramStat: {
      const Histogram::Snapshot snap = state->hist->TakeSnapshot();
      if (snap.count < state->last_hist.count) {
        // Histogram was Reset() mid-window: re-prime rather than produce
        // a wrapped delta.
        state->last_hist = snap;
        return false;
      }
      const Histogram::Snapshot delta = snap.DeltaSince(state->last_hist);
      state->last_hist = snap;
      if (delta.count == 0) return false;
      const Histogram::Summary s = Histogram::Summarize(delta);
      if (state->rule.stat == "p50") {
        *value = s.p50_us;
      } else if (state->rule.stat == "p95") {
        *value = s.p95_us;
      } else if (state->rule.stat == "p99") {
        *value = s.p99_us;
      } else if (state->rule.stat == "p999") {
        *value = s.p999_us;
      } else if (state->rule.stat == "max") {
        *value = s.max_us;
      } else {
        *value = s.mean_us;
      }
      return true;
    }
    case WatchRule::Kind::kCounterRate: {
      const uint64_t a = state->counter_a->Value();
      const uint64_t b = state->counter_b->Value();
      if (a < state->last_a || b < state->last_b) {
        state->last_a = a;
        state->last_b = b;
        return false;  // counter Reset() mid-window
      }
      const uint64_t da = a - state->last_a;
      const uint64_t db = b - state->last_b;
      state->last_a = a;
      state->last_b = b;
      if (db == 0) return false;
      *value = static_cast<double>(da) / static_cast<double>(db);
      return true;
    }
    case WatchRule::Kind::kCounterDelta: {
      const uint64_t a = state->counter_a->Value();
      if (a < state->last_a) {
        state->last_a = a;
        return false;
      }
      *value = static_cast<double>(a - state->last_a);
      state->last_a = a;
      return true;
    }
    case WatchRule::Kind::kGaugeValue:
      *value = state->gauge->Value();
      return true;
  }
  return false;
}

size_t Watchdog::Evaluate(bool force, double now) {
  // Clip counters live in process-wide atomics (obs/prop_stats.h); mirror
  // them in so clip-drift rules see live values without every caller
  // remembering to publish.
  PublishPropensityClipStats(registry_);

  std::lock_guard<std::mutex> lock(mu_);
  size_t fired = 0;
  for (RuleState& state : states_) {
    if (!state.primed) {
      // First pass marks the window start; deltas measured from process
      // zero would alert on history, not on what just happened.
      double ignored = 0.0;
      ComputeValue(&state, &ignored);
      state.primed = true;
      state.last_eval_s = now;
      continue;
    }
    if (!force && now - state.last_eval_s < state.rule.window_s) continue;
    state.last_eval_s = now;

    double value = 0.0;
    if (!ComputeValue(&state, &value)) continue;

    double compared = value;
    bool has_baseline = false;
    double baseline = 0.0;
    if (state.rule.drift) {
      if (!state.baseline.empty()) {
        for (const double v : state.baseline) baseline += v;
        baseline /= static_cast<double>(state.baseline.size());
        has_baseline = true;
        compared = value - baseline;
      }
      state.baseline.push_back(value);
      while (state.baseline.size() > options_.baseline_windows) {
        state.baseline.pop_front();
      }
      if (!has_baseline) continue;  // first window: baseline only
    }

    const bool above = state.rule.direction == WatchRule::Direction::kAbove;
    if (above ? compared <= state.rule.threshold
              : compared >= state.rule.threshold) {
      continue;
    }

    AlertEvent event;
    event.rule = state.rule.name;
    event.expr = (state.rule.drift ? "drift:" : "") + state.rule.expr;
    event.context = context_;
    event.direction = above ? "above" : "below";
    event.value = compared;
    event.threshold = state.rule.threshold;
    event.window_s = state.rule.window_s;
    event.baseline = baseline;
    event.has_baseline = has_baseline;
    event.at_s = now;
    if (sink_.is_open()) {
      sink_ << AlertJsonLine(event) << "\n";
      sink_.flush();
    }
    alerts_.push_back(std::move(event));
    ++fired;
  }
  return fired;
}

std::vector<AlertEvent> Watchdog::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

size_t Watchdog::fired_count(const std::string& rule_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (rule_name.empty()) return alerts_.size();
  size_t n = 0;
  for (const AlertEvent& event : alerts_) {
    if (event.rule == rule_name) ++n;
  }
  return n;
}

}  // namespace dtrec::obs
