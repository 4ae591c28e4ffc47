#include "obs/telemetry_validate.h"

#include <vector>

#include "util/json.h"

namespace dtrec::obs {
namespace {

std::vector<std::string> SplitNonEmptyLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : s) {
    if (c == '\n') {
      if (!cur.empty()) lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

}  // namespace

Status ValidateTraceJson(const std::string& content, size_t* num_events,
                         std::set<std::string>* span_names,
                         std::map<std::string, size_t>* trace_id_events) {
  json::Cursor cur{content};
  bool saw_events_array = false;
  size_t events = 0;
  std::string error;
  std::set<std::string> names;
  std::map<std::string, size_t> id_events;

  cur.ParseObject([&](const std::string& key) {
    if (key != "traceEvents") {
      cur.SkipValue();
      return;
    }
    saw_events_array = true;
    cur.ParseArray([&] {
      std::string name, ph;
      bool has_ts = false, has_dur = false, has_pid = false, has_tid = false;
      double ts = -1.0, dur = -1.0;
      cur.ParseObject([&](const std::string& ek) {
        if (ek == "name") {
          name = cur.ParseString();
        } else if (ek == "ph") {
          ph = cur.ParseString();
        } else if (ek == "ts") {
          ts = cur.ParseNumber();
          has_ts = true;
        } else if (ek == "dur") {
          dur = cur.ParseNumber();
          has_dur = true;
        } else if (ek == "pid") {
          cur.ParseNumber();
          has_pid = true;
        } else if (ek == "tid") {
          cur.ParseNumber();
          has_tid = true;
        } else if (ek == "args") {
          cur.ParseObject([&](const std::string& ak) {
            if (ak == "trace_id") {
              ++id_events[cur.ParseString()];
            } else {
              cur.SkipValue();
            }
          });
        } else {
          cur.SkipValue();
        }
      });
      if (error.empty()) {
        if (name.empty()) {
          error = "traceEvents[" + std::to_string(events) + "] has no name";
        } else if (ph != "X") {
          error = "traceEvents[" + std::to_string(events) + "] ('" + name +
                  "') ph is '" + ph + "', expected complete event 'X'";
        } else if (!has_ts || !has_dur || ts < 0.0 || dur < 0.0) {
          error = "traceEvents[" + std::to_string(events) + "] ('" + name +
                  "') needs non-negative ts and dur";
        } else if (!has_pid || !has_tid) {
          error = "traceEvents[" + std::to_string(events) + "] ('" + name +
                  "') needs pid and tid";
        }
      }
      names.insert(name);
      ++events;
    });
  });

  if (!cur.ok || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed trace JSON");
  }
  if (!saw_events_array) {
    return Status::InvalidArgument("trace JSON has no traceEvents array");
  }
  if (!error.empty()) return Status::InvalidArgument(error);
  if (num_events != nullptr) *num_events = events;
  if (span_names != nullptr) *span_names = names;
  if (trace_id_events != nullptr) *trace_id_events = id_events;
  return Status::OK();
}

Status ValidateAlertsJsonl(const std::string& content, size_t* num_records,
                           std::set<std::string>* rule_names,
                           std::set<std::string>* contexts) {
  const std::vector<std::string> lines = SplitNonEmptyLines(content);
  std::set<std::string> rules;
  std::set<std::string> ctxs;
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    json::Cursor cur{lines[ln]};
    std::string schema, rule, expr, direction, context;
    bool saw_context = false, has_baseline = false;
    bool has_value = false, has_threshold = false, has_window = false,
         has_at = false;

    cur.ParseObject([&](const std::string& key) {
      if (key == "schema") {
        schema = cur.ParseString();
      } else if (key == "rule") {
        rule = cur.ParseString();
      } else if (key == "expr") {
        expr = cur.ParseString();
      } else if (key == "context") {
        context = cur.ParseString();
        saw_context = true;
      } else if (key == "direction") {
        direction = cur.ParseString();
      } else if (key == "value") {
        cur.ParseNumber();
        has_value = true;
      } else if (key == "threshold") {
        cur.ParseNumber();
        has_threshold = true;
      } else if (key == "window_s") {
        has_window = cur.ParseNumber() > 0.0;
      } else if (key == "at_s") {
        cur.ParseNumber();
        has_at = true;
      } else if (key == "baseline") {
        cur.SkipValue();  // number or null, both fine
        has_baseline = true;
      } else {
        cur.SkipValue();
      }
    });

    const std::string where = "line " + std::to_string(ln + 1);
    if (!cur.ok || !cur.AtEnd()) {
      return Status::InvalidArgument(where + ": malformed alert record");
    }
    if (schema != "dtrec-alerts-v1") {
      return Status::InvalidArgument(where + ": schema tag is '" + schema +
                                     "', expected 'dtrec-alerts-v1'");
    }
    if (rule.empty() || expr.empty()) {
      return Status::InvalidArgument(where + ": missing rule or expr");
    }
    if (direction != "above" && direction != "below") {
      return Status::InvalidArgument(
          where + ": direction must be 'above' or 'below'");
    }
    if (!has_value || !has_threshold || !has_window || !has_at) {
      return Status::InvalidArgument(
          where + ": needs numeric value/threshold, positive window_s, "
                  "and at_s");
    }
    if (!saw_context || !has_baseline) {
      return Status::InvalidArgument(where +
                                     ": needs context and baseline keys");
    }
    rules.insert(rule);
    ctxs.insert(context);
  }
  if (num_records != nullptr) *num_records = lines.size();
  if (rule_names != nullptr) *rule_names = rules;
  if (contexts != nullptr) *contexts = ctxs;
  return Status::OK();
}

Status ValidateProfileJson(const std::string& content, size_t* num_samples,
                           std::set<std::string>* frame_names) {
  json::Cursor cur{content};
  std::string schema;
  bool has_interval = false, has_samples = false, has_dropped = false;
  bool saw_stacks = false;
  double samples = 0.0;
  size_t stack_index = 0;
  std::set<std::string> frames_seen;
  std::string error;

  cur.ParseObject([&](const std::string& key) {
    if (key == "schema") {
      schema = cur.ParseString();
    } else if (key == "interval_us") {
      has_interval = cur.ParseNumber() >= 0.0;
    } else if (key == "samples") {
      samples = cur.ParseNumber();
      has_samples = samples >= 0.0;
    } else if (key == "dropped") {
      has_dropped = cur.ParseNumber() >= 0.0;
    } else if (key == "stacks") {
      saw_stacks = true;
      cur.ParseArray([&] {
        size_t num_frames = 0;
        bool frames_ok = true;
        double count = 0.0;
        cur.ParseObject([&](const std::string& sk) {
          if (sk == "frames") {
            cur.ParseArray([&] {
              const std::string frame = cur.ParseString();
              if (frame.empty()) frames_ok = false;
              frames_seen.insert(frame);
              ++num_frames;
            });
          } else if (sk == "count") {
            count = cur.ParseNumber();
          } else {
            cur.SkipValue();
          }
        });
        if (error.empty() && !(num_frames > 0 && frames_ok && count >= 1.0)) {
          error = "stacks[" + std::to_string(stack_index) +
                  "] needs non-empty string frames and count >= 1";
        }
        ++stack_index;
      });
    } else {
      cur.SkipValue();
    }
  });

  if (!cur.ok || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed profile JSON");
  }
  if (schema != "dtrec-profile-v1") {
    return Status::InvalidArgument("schema tag is '" + schema +
                                   "', expected 'dtrec-profile-v1'");
  }
  if (!has_interval || !has_samples || !has_dropped || !saw_stacks) {
    return Status::InvalidArgument(
        "profile JSON needs interval_us/samples/dropped and a stacks array");
  }
  if (!error.empty()) return Status::InvalidArgument(error);
  if (num_samples != nullptr) *num_samples = static_cast<size_t>(samples);
  if (frame_names != nullptr) *frame_names = frames_seen;
  return Status::OK();
}

Status ValidateTrainEventsJsonl(const std::string& content,
                                size_t* num_records,
                                std::set<std::string>* loss_keys) {
  const std::vector<std::string> lines = SplitNonEmptyLines(content);
  if (lines.empty()) {
    return Status::InvalidArgument("event stream is empty");
  }
  std::set<std::string> keys;
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    json::Cursor cur{lines[ln]};
    std::string schema, method;
    bool has_epoch = false, has_steps = false, has_losses = false;
    bool has_grad_norm = false, has_cursor = false;
    double wall_s = -1.0;
    bool clip_total = false, clip_fired = false, clip_rate = false;
    bool saw_clip = false;

    cur.ParseObject([&](const std::string& key) {
      if (key == "schema") {
        schema = cur.ParseString();
      } else if (key == "method") {
        method = cur.ParseString();
      } else if (key == "epoch") {
        has_epoch = cur.ParseNumber() >= 0.0;
      } else if (key == "steps") {
        has_steps = cur.ParseNumber() >= 0.0;
      } else if (key == "wall_s") {
        wall_s = cur.ParseNumber();
      } else if (key == "grad_norm") {
        cur.ParseNumber();
        has_grad_norm = true;
      } else if (key == "losses") {
        has_losses = true;
        cur.ParseObject([&](const std::string& lk) {
          keys.insert(lk);
          cur.ParseNumber();
        });
      } else if (key == "propensity_clip") {
        saw_clip = true;
        cur.ParseObject([&](const std::string& ck) {
          if (ck == "total") clip_total = true;
          if (ck == "fired") clip_fired = true;
          if (ck == "rate") clip_rate = true;
          cur.ParseNumber();
        });
      } else if (key == "rng_cursor") {
        has_cursor = !cur.ParseString().empty();
      } else {
        cur.SkipValue();
      }
    });

    const std::string where = "line " + std::to_string(ln + 1);
    if (!cur.ok || !cur.AtEnd()) {
      return Status::InvalidArgument(where + ": malformed JSON record");
    }
    if (schema != "dtrec-train-events-v1") {
      return Status::InvalidArgument(where + ": schema tag is '" + schema +
                                     "', expected 'dtrec-train-events-v1'");
    }
    if (method.empty()) {
      return Status::InvalidArgument(where + ": missing method");
    }
    if (!has_epoch || !has_steps || wall_s < 0.0 || !has_grad_norm) {
      return Status::InvalidArgument(
          where + ": needs numeric epoch/steps/wall_s/grad_norm");
    }
    if (!has_losses) {
      return Status::InvalidArgument(where + ": missing losses object");
    }
    if (!saw_clip || !clip_total || !clip_fired || !clip_rate) {
      return Status::InvalidArgument(
          where + ": propensity_clip needs total/fired/rate");
    }
    if (!has_cursor) {
      return Status::InvalidArgument(where + ": missing rng_cursor");
    }
  }
  if (num_records != nullptr) *num_records = lines.size();
  if (loss_keys != nullptr) *loss_keys = keys;
  return Status::OK();
}

Status ValidateMetricsJson(const std::string& content) {
  json::Cursor cur{content};
  std::string schema;
  bool saw_counters = false, saw_gauges = false, saw_histograms = false;
  std::string error;

  cur.ParseObject([&](const std::string& key) {
    if (key == "schema") {
      schema = cur.ParseString();
    } else if (key == "counters") {
      saw_counters = true;
      cur.ParseObject([&](const std::string&) { cur.ParseNumber(); });
    } else if (key == "gauges") {
      saw_gauges = true;
      cur.ParseObject([&](const std::string&) { cur.ParseNumber(); });
    } else if (key == "histograms") {
      saw_histograms = true;
      cur.ParseObject([&](const std::string& hist_name) {
        bool count = false, mean = false, p50 = false, p95 = false,
             p99 = false, max = false;
        cur.ParseObject([&](const std::string& hk) {
          if (hk == "count") count = true;
          if (hk == "mean") mean = true;
          if (hk == "p50") p50 = true;
          if (hk == "p95") p95 = true;
          if (hk == "p99") p99 = true;
          if (hk == "max") max = true;
          cur.ParseNumber();
        });
        if (error.empty() &&
            !(count && mean && p50 && p95 && p99 && max)) {
          error = "histogram '" + hist_name +
                  "' needs count/mean/p50/p95/p99/max";
        }
      });
    } else {
      cur.SkipValue();
    }
  });

  if (!cur.ok || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed metrics JSON");
  }
  if (schema != "dtrec-metrics-v1") {
    return Status::InvalidArgument("schema tag is '" + schema +
                                   "', expected 'dtrec-metrics-v1'");
  }
  if (!saw_counters || !saw_gauges || !saw_histograms) {
    return Status::InvalidArgument(
        "metrics JSON needs counters/gauges/histograms objects");
  }
  if (!error.empty()) return Status::InvalidArgument(error);
  return Status::OK();
}

Status ValidateServingBenchJson(const std::string& content,
                                ServingBenchGateInputs* gate) {
  json::Cursor cur{content};
  std::string schema;
  bool saw_build = false, saw_config = false, saw_summary = false;
  bool build_type = false, sanitizers = false, numeric_checks = false,
       failpoints = false;
  ServingBenchGateInputs parsed;
  std::string error;

  cur.ParseObject([&](const std::string& key) {
    if (key == "schema") {
      schema = cur.ParseString();
    } else if (key == "build") {
      saw_build = true;
      cur.ParseObject([&](const std::string& bk) {
        if (bk == "build_type") {
          build_type = true;
          parsed.build_type = cur.ParseString();
        } else if (bk == "sanitizers") {
          sanitizers = true;
          parsed.sanitizers = cur.ParseString();
        } else if (bk == "numeric_checks") {
          numeric_checks = true;
          cur.SkipValue();
        } else if (bk == "failpoints") {
          failpoints = true;
          cur.SkipWs();
          const size_t at = cur.i;
          cur.SkipValue();
          parsed.failpoints = content.compare(at, 4, "true") == 0;
        } else {
          cur.SkipValue();
        }
      });
    } else if (key == "config") {
      saw_config = true;
      cur.ParseObject([&](const std::string& ck) {
        if (ck == "slo_ms") {
          parsed.slo_ms = cur.ParseNumber();
        } else {
          cur.SkipValue();
        }
      });
    } else if (key == "phases") {
      cur.ParseArray([&] {
        std::string name;
        bool requests = false, elapsed = false;
        int percentiles = 0, rates = 0;
        double p99_us = 0.0, shed_rate = -1.0;
        cur.ParseObject([&](const std::string& pk) {
          if (pk == "phase") {
            name = cur.ParseString();
          } else if (pk == "requests") {
            requests = cur.ParseNumber() >= 0.0;
          } else if (pk == "elapsed_s") {
            elapsed = cur.ParseNumber() >= 0.0;
          } else if (pk == "p50_us" || pk == "p999_us") {
            if (cur.ParseNumber() >= 0.0) ++percentiles;
          } else if (pk == "p99_us") {
            p99_us = cur.ParseNumber();
            if (p99_us >= 0.0) ++percentiles;
          } else if (pk == "shed_rate") {
            shed_rate = cur.ParseNumber();
            if (shed_rate >= 0.0 && shed_rate <= 1.0) ++rates;
          } else if (pk == "degraded_rate" || pk == "cache_hit_rate") {
            const double v = cur.ParseNumber();
            if (v >= 0.0 && v <= 1.0) ++rates;
          } else {
            cur.SkipValue();
          }
        });
        if (error.empty() &&
            !(!name.empty() && requests && elapsed && percentiles == 3 &&
              rates == 3)) {
          error = "phases[" + std::to_string(parsed.num_phases) +
                  "] missing phase/requests/elapsed_s, a latency "
                  "percentile, or a rate outside [0, 1]";
        }
        if (name == "capacity") parsed.capacity_p99_us = p99_us;
        if (name == "saturation_flood") parsed.saturation_shed_rate = shed_rate;
        ++parsed.num_phases;
      });
    } else if (key == "summary") {
      saw_summary = true;
      cur.ParseObject([&](const std::string& sk) {
        if (sk == "per_core_users_per_sec_at_slo") {
          parsed.per_core_users_per_sec_at_slo = cur.ParseNumber();
        } else {
          cur.SkipValue();
        }
      });
    } else {
      cur.SkipValue();
    }
  });

  if (!cur.ok || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed serving bench JSON");
  }
  if (schema != kServingBenchSchema) {
    return Status::InvalidArgument("schema tag is '" + schema +
                                   "', expected '" + kServingBenchSchema +
                                   "'");
  }
  if (!saw_build || !build_type || !sanitizers || !numeric_checks ||
      !failpoints) {
    return Status::InvalidArgument(
        "build stamp needs build_type/sanitizers/numeric_checks/failpoints");
  }
  if (!saw_config) return Status::InvalidArgument("missing config object");
  if (parsed.num_phases == 0) {
    return Status::InvalidArgument("phases array is empty");
  }
  if (!error.empty()) return Status::InvalidArgument(error);
  if (!saw_summary) return Status::InvalidArgument("missing summary object");
  if (gate != nullptr) *gate = parsed;
  return Status::OK();
}

Status ValidateKernelBenchJson(const std::string& content) {
  json::Cursor cur{content};
  std::string schema;
  bool saw_build = false;
  std::set<std::string> build_keys;
  size_t num_results = 0;
  std::string error;

  cur.ParseObject([&](const std::string& key) {
    if (key == "schema") {
      schema = cur.ParseString();
    } else if (key == "build") {
      saw_build = true;
      cur.ParseObject([&](const std::string& bk) {
        build_keys.insert(bk);
        cur.SkipValue();
      });
    } else if (key == "results") {
      cur.ParseArray([&] {
        bool has_kernel = false, has_variant = false;
        size_t dims = 0;
        double ns = -1.0, gflops = -1.0;
        cur.ParseObject([&](const std::string& rk) {
          if (rk == "kernel") {
            has_kernel = !cur.ParseString().empty();
          } else if (rk == "variant") {
            const std::string v = cur.ParseString();
            has_variant = v == "blocked" || v == "naive" || v == "pruned";
          } else if (rk == "m" || rk == "k" || rk == "n") {
            if (cur.ParseNumber() >= 0.0) ++dims;
          } else if (rk == "ns_per_op") {
            ns = cur.ParseNumber();
          } else if (rk == "gflops") {
            gflops = cur.ParseNumber();
          } else {
            cur.SkipValue();
          }
        });
        if (error.empty() && !(has_kernel && has_variant && dims == 3 &&
                               ns > 0.0 && gflops >= 0.0)) {
          error = "results[" + std::to_string(num_results) +
                  "] missing kernel/variant/m/k/n or non-positive timing";
        }
        ++num_results;
      });
    } else {
      cur.SkipValue();
    }
  });

  if (!cur.ok || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed kernel bench JSON");
  }
  if (!error.empty()) return Status::InvalidArgument(error);
  if (schema != kKernelBenchSchema) {
    return Status::InvalidArgument("schema tag is '" + schema +
                                   "', expected '" + kKernelBenchSchema +
                                   "'");
  }
  if (!saw_build) return Status::InvalidArgument("missing build stamp");
  for (const char* required :
       {"build_type", "sanitizers", "numeric_checks", "failpoints"}) {
    if (build_keys.count(required) == 0) {
      return Status::InvalidArgument(std::string("build stamp missing '") +
                                     required + "'");
    }
  }
  if (num_results == 0) {
    return Status::InvalidArgument("results array is empty");
  }
  return Status::OK();
}

namespace {

/// Serving rows: per-phase closed-loop throughput (requests / elapsed_s,
/// higher better) and p99 (lower better), plus the summary's per-core SLO
/// throughput.
void ExtractServingRows(json::Cursor* cur, std::vector<BenchDiffRow>* rows) {
  cur->ParseObject([&](const std::string& key) {
    if (key == "phases") {
      cur->ParseArray([&] {
        std::string name;
        double requests = 0.0, elapsed = 0.0, p99 = -1.0;
        cur->ParseObject([&](const std::string& pk) {
          if (pk == "phase") {
            name = cur->ParseString();
          } else if (pk == "requests") {
            requests = cur->ParseNumber();
          } else if (pk == "elapsed_s") {
            elapsed = cur->ParseNumber();
          } else if (pk == "p99_us") {
            p99 = cur->ParseNumber();
          } else {
            cur->SkipValue();
          }
        });
        if (!name.empty() && elapsed > 0.0) {
          rows->push_back(
              {name + ".requests_per_sec", requests / elapsed, true});
        }
        if (!name.empty() && p99 >= 0.0) {
          rows->push_back({name + ".p99_us", p99, false});
        }
      });
    } else if (key == "summary") {
      cur->ParseObject([&](const std::string& sk) {
        if (sk == "per_core_users_per_sec_at_slo") {
          rows->push_back(
              {"summary.per_core_users_per_sec_at_slo", cur->ParseNumber(),
               true});
        } else {
          cur->SkipValue();
        }
      });
    } else {
      cur->SkipValue();
    }
  });
}

/// Kernel rows: gflops per kernel/variant/shape (higher better); a row
/// without a positive gflops falls back to ns_per_op (lower better).
void ExtractKernelRows(json::Cursor* cur, std::vector<BenchDiffRow>* rows) {
  cur->ParseObject([&](const std::string& key) {
    if (key != "results") {
      cur->SkipValue();
      return;
    }
    cur->ParseArray([&] {
      std::string kernel, variant;
      double m = 0.0, k = 0.0, n = 0.0, gflops = 0.0, ns_per_op = 0.0;
      cur->ParseObject([&](const std::string& rk) {
        if (rk == "kernel") {
          kernel = cur->ParseString();
        } else if (rk == "variant") {
          variant = cur->ParseString();
        } else if (rk == "m") {
          m = cur->ParseNumber();
        } else if (rk == "k") {
          k = cur->ParseNumber();
        } else if (rk == "n") {
          n = cur->ParseNumber();
        } else if (rk == "gflops") {
          gflops = cur->ParseNumber();
        } else if (rk == "ns_per_op") {
          ns_per_op = cur->ParseNumber();
        } else {
          cur->SkipValue();
        }
      });
      if (!kernel.empty()) {
        const std::string shape = std::to_string(static_cast<long long>(m)) +
                                  "x" +
                                  std::to_string(static_cast<long long>(k)) +
                                  "x" +
                                  std::to_string(static_cast<long long>(n));
        const std::string base = kernel + "/" + variant + "/" + shape;
        if (gflops > 0.0) {
          rows->push_back({base + ".gflops", gflops, true});
        } else if (ns_per_op > 0.0) {
          rows->push_back({base + ".ns_per_op", ns_per_op, false});
        }
      }
    });
  });
}

}  // namespace

Status ExtractBenchRows(const std::string& content, std::string* schema,
                        std::vector<BenchDiffRow>* rows) {
  // First pass: just the schema tag.
  std::string tag;
  {
    json::Cursor cur{content};
    cur.ParseObject([&](const std::string& key) {
      if (key == "schema") {
        tag = cur.ParseString();
      } else {
        cur.SkipValue();
      }
    });
    if (!cur.ok || !cur.AtEnd()) {
      return Status::InvalidArgument("malformed bench JSON");
    }
  }
  rows->clear();
  json::Cursor cur{content};
  if (tag == kServingBenchSchema) {
    ExtractServingRows(&cur, rows);
  } else if (tag == kKernelBenchSchema) {
    ExtractKernelRows(&cur, rows);
  } else {
    return Status::InvalidArgument("unsupported bench schema '" + tag + "'");
  }
  if (!cur.ok) return Status::InvalidArgument("malformed bench JSON");
  if (rows->empty()) {
    return Status::InvalidArgument("bench JSON has no comparable rows");
  }
  if (schema != nullptr) *schema = tag;
  return Status::OK();
}

}  // namespace dtrec::obs
