#include "obs/event_log.h"

#include <sstream>

#include "util/json.h"
#include "util/string_util.h"

namespace dtrec::obs {

std::string TrainEventToJsonLine(const TrainEvent& event) {
  std::ostringstream os;
  os << "{\"schema\": \"dtrec-train-events-v1\""
     << ", \"method\": \"" << json::Escape(event.method) << "\""
     << ", \"epoch\": " << event.epoch << ", \"steps\": " << event.steps
     << ", \"wall_s\": " << json::Number(event.wall_seconds)
     << ", \"lr\": " << json::Number(event.learning_rate) << ", \"losses\": {";
  bool first = true;
  for (const auto& [name, value] : event.losses) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json::Escape(name) << "\": " << json::Number(value);
  }
  os << "}, \"grad_norm\": " << json::Number(event.grad_norm)
     << ", \"propensity_clip\": {\"total\": " << event.clip_total
     << ", \"fired\": " << event.clip_fired
     << ", \"rate\": " << json::Number(event.clip_rate) << "}"
     << StrFormat(", \"rng_cursor\": \"0x%016llx\"",
                  static_cast<unsigned long long>(event.rng_cursor))
     << "}\n";
  return os.str();
}

Status TrainEventLog::Open(const std::string& path, bool append) {
  path_ = path;
  out_.open(path, append ? std::ios::app : std::ios::trunc);
  if (!out_.is_open()) {
    return Status::InvalidArgument("cannot open event log '" + path + "'");
  }
  return Status::OK();
}

Status TrainEventLog::Append(const TrainEvent& event) {
  if (!out_.is_open()) {
    return Status::FailedPrecondition("event log is not open");
  }
  out_ << TrainEventToJsonLine(event);
  out_.flush();
  if (!out_.good()) {
    return Status::Internal("write to event log '" + path_ + "' failed");
  }
  return Status::OK();
}

}  // namespace dtrec::obs
