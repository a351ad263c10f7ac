#include "obs/flight_recorder.h"

#include <cstdio>

#include "obs/event_names.h"

namespace rdp::obs {

using core::Hook;

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

std::size_t FlightRecorder::next_slot() {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.emplace_back();
    return ring_.size() - 1;
  }
  const std::size_t slot = next_;
  next_ = (next_ + 1) % capacity_;
  return slot;
}

void FlightRecorder::record(common::SimTime at, std::string line) {
  const std::size_t slot = next_slot();
  ring_[slot] = Entry{core::Event{.at = at}, true};
  if (text_.empty()) text_.resize(capacity_);
  text_[slot] = std::move(line);
}

void FlightRecorder::on_event(const core::Event& event) {
  if ((kMask & core::hook_bit(event.kind)) == 0) return;
  ring_[next_slot()] = Entry{event, false};
  if (event.kind == Hook::kRequestLost && loss_sink_ != nullptr &&
      !loss_dumped_) {
    loss_dumped_ = true;
    dump(*loss_sink_);
  }
}

std::size_t FlightRecorder::size() const { return ring_.size(); }

std::string FlightRecorder::format(std::size_t slot) const {
  if (ring_[slot].text) return text_[slot];
  const core::Event& e = ring_[slot].event;
  const std::string mh = e.mh.str();
  const std::string r = e.request.str();
  const auto node = [](std::uint32_t id) {
    return core::NodeAddress(id).str();
  };
  const auto proxy = [](std::uint32_t id) { return core::ProxyId(id).str(); };
  const auto mss = [](std::uint32_t id) { return core::MssId(id).str(); };
  const std::string seq = " seq=" + std::to_string(e.seq);
  switch (e.kind) {
    case Hook::kProxyCreated:
      return "proxy_created " + proxy(e.id_b) + " for " + mh + " at " +
             node(e.id_a);
    case Hook::kProxyDeleted:
      return "proxy_deleted " + proxy(e.id_b) + " for " + mh + " at " +
             node(e.id_a) + (e.flag_a ? " [gc]" : "");
    case Hook::kRequestIssued:
      return "request_issued " + r + " by " + mh + " to " + node(e.id_a);
    case Hook::kRequestReachedProxy:
      return "request_reached_proxy " + r + " at " + node(e.id_a);
    case Hook::kResultAtProxy:
      return "result_at_proxy " + r + seq;
    case Hook::kResultForwarded:
      return "result_forwarded " + r + seq +
             " attempt=" + std::to_string(e.attempt) + " to=" + node(e.id_a) +
             (e.flag_a ? " [del-pref]" : "");
    case Hook::kResultDelivered:
      return "result_delivered " + r + seq + " at " + mh +
             " attempt=" + std::to_string(e.attempt) +
             (e.flag_a ? " [final]" : "") + (e.flag_b ? " [dup]" : "");
    case Hook::kAckForwarded:
      return "ack_forwarded " + r + seq + (e.flag_a ? " [del-proxy]" : "");
    case Hook::kRequestCompleted:
      return "request_completed " + r;
    case Hook::kRequestLost:
      return "REQUEST_LOST " + r + " of " + mh +
             " reason=" + loss_reason_name(e.reason);
    case Hook::kHandoffStarted:
      return "handoff_started " + mh + " " + mss(e.id_a) + "->" + mss(e.id_b);
    case Hook::kHandoffCompleted:
      return "handoff_completed " + mh + " " + mss(e.id_a) + "->" +
             mss(e.id_b) + " (" + e.duration.str() + ", " +
             std::to_string(e.count_a) + " B)";
    case Hook::kUpdateCurrentloc:
      return "update_currentLoc " + mh + " proxy@" + node(e.id_a) + " -> " +
             node(e.id_b);
    case Hook::kMhRegistered:
      return "mh_registered " + mh + " at " + mss(e.id_a) + " (" +
             e.duration.str() + ")";
    case Hook::kStaleAckDropped:
      return "stale_ack_dropped " + r + " from " + mh;
    case Hook::kDelproxyWithPending:
      return "ANOMALY delproxy_with_pending " + proxy(e.id_a) + " of " + mh;
    case Hook::kOrphanedProxy:
      return "orphaned_proxy " + proxy(e.id_a) + " of " + mh;
    case Hook::kMssCrashed:
      return "MSS_CRASHED " + mss(e.id_a) + " (" + std::to_string(e.count_a) +
             " proxies lost, " + std::to_string(e.count_b) + " Mhs detached)";
    case Hook::kMssRestarted:
      return "mss_restarted " + mss(e.id_a) + " (" +
             std::to_string(e.count_a) + " proxies restored)";
    case Hook::kProxyRestored:
      return "proxy_restored " + proxy(e.id_b) + " for " + mh + " at " +
             node(e.id_a);
    case Hook::kRequestReissued:
      return "request_reissued " + r + " by " + mh +
             " attempt=" + std::to_string(e.attempt);
    case Hook::kReissueExhausted:
      return "REISSUE_EXHAUSTED " + r + " by " + mh + " after " +
             std::to_string(e.attempt) + " re-issues";
    default:
      return hook_name(static_cast<std::size_t>(e.kind));
  }
}

void FlightRecorder::dump(std::ostream& os) const {
  os << "-- flight recorder: last " << ring_.size() << " of " << total_
     << " events --\n";
  char stamp[32];
  auto write = [&](std::size_t slot) {
    std::snprintf(stamp, sizeof(stamp), "%12.3f ms  ",
                  ring_[slot].event.at.to_seconds() * 1e3);
    os << stamp << format(slot) << '\n';
  };
  for (std::size_t i = next_; i < ring_.size(); ++i) write(i);
  for (std::size_t i = 0; i < next_; ++i) write(i);
}

void FlightRecorder::clear() {
  ring_.clear();
  text_.clear();
  next_ = 0;
  total_ = 0;
  loss_dumped_ = false;
}

}  // namespace rdp::obs
