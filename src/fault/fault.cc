#include "fault/fault.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace planet {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashReplica:
      return "crash";
    case FaultKind::kRestartReplica:
      return "restart";
    case FaultKind::kPartitionDc:
      return "partition";
    case FaultKind::kHealDc:
      return "heal";
    case FaultKind::kSpikeDc:
      return "spike";
    case FaultKind::kClearSpikeDc:
      return "clearspike";
  }
  return "?";
}

std::string FaultEvent::ToString() const {
  std::ostringstream oss;
  oss << FaultKindName(kind) << "@" << FormatSimTime(at) << ":dc" << dc;
  if (kind == FaultKind::kSpikeDc) {
    oss << ":+" << spike_extra / 1000 << "ms";
  }
  return oss.str();
}

FaultSchedule& FaultSchedule::CrashReplica(SimTime at, DcId dc) {
  return Add(FaultEvent{at, FaultKind::kCrashReplica, dc, 0, 0.0});
}
FaultSchedule& FaultSchedule::RestartReplica(SimTime at, DcId dc) {
  return Add(FaultEvent{at, FaultKind::kRestartReplica, dc, 0, 0.0});
}
FaultSchedule& FaultSchedule::PartitionDc(SimTime at, DcId dc) {
  return Add(FaultEvent{at, FaultKind::kPartitionDc, dc, 0, 0.0});
}
FaultSchedule& FaultSchedule::HealDc(SimTime at, DcId dc) {
  return Add(FaultEvent{at, FaultKind::kHealDc, dc, 0, 0.0});
}
FaultSchedule& FaultSchedule::SpikeDc(SimTime at, DcId dc, Duration extra,
                                      double sigma) {
  return Add(FaultEvent{at, FaultKind::kSpikeDc, dc, extra, sigma});
}
FaultSchedule& FaultSchedule::ClearSpikeDc(SimTime at, DcId dc) {
  return Add(FaultEvent{at, FaultKind::kClearSpikeDc, dc, 0, 0.0});
}

FaultSchedule& FaultSchedule::Add(const FaultEvent& event) {
  events_.push_back(event);
  return *this;
}

FaultSchedule& FaultSchedule::Merge(const FaultSchedule& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  return *this;
}

std::vector<FaultEvent> FaultSchedule::Sorted() const {
  std::vector<FaultEvent> sorted = events_;
  // Stable: same-time events apply in insertion order, deterministically.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return sorted;
}

Status FaultSchedule::Validate(int num_dcs) const {
  std::vector<bool> down(static_cast<size_t>(num_dcs), false);
  std::vector<bool> cut(static_cast<size_t>(num_dcs), false);
  for (const FaultEvent& event : Sorted()) {
    if (event.at < 0) {
      return Status::InvalidArgument("fault event before t=0: " +
                                     event.ToString());
    }
    if (event.dc < 0 || event.dc >= num_dcs) {
      return Status::InvalidArgument("fault event targets unknown dc: " +
                                     event.ToString());
    }
    size_t dc = static_cast<size_t>(event.dc);
    switch (event.kind) {
      case FaultKind::kCrashReplica:
        if (down[dc]) {
          return Status::InvalidArgument("double crash: " + event.ToString());
        }
        down[dc] = true;
        break;
      case FaultKind::kRestartReplica:
        if (!down[dc]) {
          return Status::InvalidArgument("restart without crash: " +
                                         event.ToString());
        }
        down[dc] = false;
        break;
      case FaultKind::kPartitionDc:
        if (cut[dc]) {
          return Status::InvalidArgument("double partition: " +
                                         event.ToString());
        }
        cut[dc] = true;
        break;
      case FaultKind::kHealDc:
        if (!cut[dc]) {
          return Status::InvalidArgument("heal without partition: " +
                                         event.ToString());
        }
        cut[dc] = false;
        break;
      case FaultKind::kSpikeDc:
        if (event.spike_extra <= 0) {
          return Status::InvalidArgument("spike without extra latency: " +
                                         event.ToString());
        }
        break;
      case FaultKind::kClearSpikeDc:
        break;
    }
  }
  // A run with a permanent cut never drains: replicas on both sides keep
  // re-querying decisions only the other side knows.
  for (size_t dc = 0; dc < cut.size(); ++dc) {
    if (cut[dc]) {
      return Status::InvalidArgument("partition of dc" + std::to_string(dc) +
                                     " never heals");
    }
  }
  return Status::OK();
}

namespace {

bool ParseKind(const std::string& token, FaultKind* kind) {
  for (FaultKind k :
       {FaultKind::kCrashReplica, FaultKind::kRestartReplica,
        FaultKind::kPartitionDc, FaultKind::kHealDc, FaultKind::kSpikeDc,
        FaultKind::kClearSpikeDc}) {
    if (token == FaultKindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

}  // namespace

bool FaultSchedule::Parse(const std::string& spec, FaultSchedule* out,
                          std::string* error) {
  PLANET_CHECK(out != nullptr);
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  std::string normalized = spec;
  std::replace(normalized.begin(), normalized.end(), ';', ',');
  std::istringstream events(normalized);
  std::string item;
  while (std::getline(events, item, ',')) {
    if (item.empty()) continue;
    size_t at_pos = item.find('@');
    if (at_pos == std::string::npos) {
      return fail("fault event missing '@': " + item);
    }
    FaultEvent event;
    if (!ParseKind(item.substr(0, at_pos), &event.kind)) {
      return fail("unknown fault kind: " + item);
    }
    std::istringstream fields(item.substr(at_pos + 1));
    std::string field;
    // SECONDS (fractions allowed)
    if (!std::getline(fields, field, ':') || field.empty()) {
      return fail("fault event missing time: " + item);
    }
    char* end = nullptr;
    double micros = std::strtod(field.c_str(), &end) * 1e6;
    // Rejects nan and inf too, and any time SimTime cannot hold.
    if (end == field.c_str() || *end != '\0' || !(micros >= 0) ||
        micros >= static_cast<double>(std::numeric_limits<SimTime>::max())) {
      return fail("bad fault time: " + item);
    }
    event.at = static_cast<SimTime>(micros);
    // DC
    if (!std::getline(fields, field, ':') || field.empty()) {
      return fail("fault event missing dc: " + item);
    }
    long dc = std::strtol(field.c_str(), &end, 10);
    if (end == field.c_str() || *end != '\0' || dc < 0 ||
        dc > std::numeric_limits<DcId>::max()) {
      return fail("bad fault dc: " + item);
    }
    event.dc = static_cast<DcId>(dc);
    // Optional EXTRA_MS (spikes only)
    if (std::getline(fields, field, ':')) {
      long ms = std::strtol(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0' || ms <= 0 ||
          ms > std::numeric_limits<Duration>::max() / Millis(1)) {
        return fail("bad spike latency: " + item);
      }
      if (event.kind != FaultKind::kSpikeDc) {
        return fail("extra latency only valid for spike events: " + item);
      }
      event.spike_extra = Millis(ms);
    } else if (event.kind == FaultKind::kSpikeDc) {
      return fail("spike event missing extra latency: " + item);
    }
    out->Add(event);
  }
  return true;
}

std::string FaultSchedule::ToString() const {
  std::ostringstream oss;
  bool first = true;
  for (const FaultEvent& event : Sorted()) {
    if (!first) oss << ", ";
    first = false;
    oss << event.ToString();
  }
  return oss.str();
}

FaultInjector::FaultInjector(Simulator* sim, FaultSchedule schedule,
                             FaultActions actions)
    : sim_(sim), schedule_(std::move(schedule)), actions_(std::move(actions)) {
  PLANET_CHECK(sim != nullptr);
  for (const FaultEvent& event : schedule_.Sorted()) {
    sim_->ScheduleAt(event.at, [this, event] { Apply(event); });
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  ++injected_;
  switch (event.kind) {
    case FaultKind::kCrashReplica:
      if (actions_.crash_replica) actions_.crash_replica(event.dc);
      break;
    case FaultKind::kRestartReplica:
      if (actions_.restart_replica) actions_.restart_replica(event.dc);
      break;
    case FaultKind::kPartitionDc:
      if (actions_.partition_dc) actions_.partition_dc(event.dc);
      break;
    case FaultKind::kHealDc:
      if (actions_.heal_dc) actions_.heal_dc(event.dc);
      break;
    case FaultKind::kSpikeDc:
      if (actions_.spike_dc) {
        actions_.spike_dc(event.dc, event.spike_extra, event.spike_sigma);
      }
      break;
    case FaultKind::kClearSpikeDc:
      if (actions_.clear_spike_dc) actions_.clear_spike_dc(event.dc);
      break;
  }
}

}  // namespace planet
