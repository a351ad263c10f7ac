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
  Entry& entry = ring_[slot];
  entry = Entry{};
  entry.at = at;
  entry.text = true;
  if (text_.empty()) text_.resize(capacity_);
  text_[slot] = std::move(line);
}

FlightRecorder::Entry& FlightRecorder::push(common::SimTime at, Hook hook,
                                            core::MhId mh) {
  Entry& entry = ring_[next_slot()];
  entry = Entry{};
  entry.at = at;
  entry.hook = hook;
  entry.mh = mh.value();
  return entry;
}

std::size_t FlightRecorder::size() const { return ring_.size(); }

std::string FlightRecorder::format(std::size_t slot) const {
  const Entry& e = ring_[slot];
  if (e.text) return text_[slot];
  const core::MhId mh(e.mh);
  const std::string r = e.request.str();
  const auto node = [](std::uint32_t id) {
    return core::NodeAddress(id).str();
  };
  const auto proxy = [](std::uint32_t id) { return core::ProxyId(id).str(); };
  const auto mss = [](std::uint32_t id) { return core::MssId(id).str(); };
  const std::string seq = " seq=" + std::to_string(e.seq);
  switch (e.hook) {
    case Hook::kProxyCreated:
      return "proxy_created " + proxy(e.id_a) + " for " + mh.str() + " at " +
             node(e.id_b);
    case Hook::kProxyDeleted:
      return "proxy_deleted " + proxy(e.id_a) + " for " + mh.str() + " at " +
             node(e.id_b) + (e.flag_a ? " [gc]" : "");
    case Hook::kRequestIssued:
      return "request_issued " + r + " by " + mh.str() + " to " + node(e.id_a);
    case Hook::kRequestReachedProxy:
      return "request_reached_proxy " + r + " at " + node(e.id_a);
    case Hook::kResultAtProxy:
      return "result_at_proxy " + r + seq;
    case Hook::kResultForwarded:
      return "result_forwarded " + r + seq +
             " attempt=" + std::to_string(e.attempt) + " to=" + node(e.id_a) +
             (e.flag_a ? " [del-pref]" : "");
    case Hook::kResultDelivered:
      return "result_delivered " + r + seq + " at " + mh.str() +
             " attempt=" + std::to_string(e.attempt) +
             (e.flag_a ? " [final]" : "") + (e.flag_b ? " [dup]" : "");
    case Hook::kAckForwarded:
      return "ack_forwarded " + r + seq + (e.flag_a ? " [del-proxy]" : "");
    case Hook::kRequestCompleted:
      return "request_completed " + r;
    case Hook::kRequestLost:
      return "REQUEST_LOST " + r + " of " + mh.str() + " reason=" +
             loss_reason_name(static_cast<core::RequestLossReason>(e.id_a));
    case Hook::kHandoffStarted:
      return "handoff_started " + mh.str() + " " + mss(e.id_a) + "->" +
             mss(e.id_b);
    case Hook::kHandoffCompleted:
      return "handoff_completed " + mh.str() + " " + mss(e.id_a) + "->" +
             mss(e.id_b) + " (" + common::Duration::micros(e.value).str() +
             ", " + std::to_string(e.count_a) + " B)";
    case Hook::kUpdateCurrentloc:
      return "update_currentLoc " + mh.str() + " proxy@" + node(e.id_a) +
             " -> " + node(e.id_b);
    case Hook::kMhRegistered:
      return "mh_registered " + mh.str() + " at " + mss(e.id_a) + " (" +
             common::Duration::micros(e.value).str() + ")";
    case Hook::kStaleAckDropped:
      return "stale_ack_dropped " + r + " from " + mh.str();
    case Hook::kDelproxyWithPending:
      return "ANOMALY delproxy_with_pending " + proxy(e.id_a) + " of " +
             mh.str();
    case Hook::kOrphanedProxy:
      return "orphaned_proxy " + proxy(e.id_a) + " of " + mh.str();
    case Hook::kMssCrashed:
      return "MSS_CRASHED " + mss(e.id_a) + " (" + std::to_string(e.count_a) +
             " proxies lost, " + std::to_string(e.count_b) + " Mhs detached)";
    case Hook::kMssRestarted:
      return "mss_restarted " + mss(e.id_a) + " (" +
             std::to_string(e.count_a) + " proxies restored)";
    case Hook::kProxyRestored:
      return "proxy_restored " + proxy(e.id_a) + " for " + mh.str() + " at " +
             node(e.id_b);
    case Hook::kRequestReissued:
      return "request_reissued " + r + " by " + mh.str() +
             " attempt=" + std::to_string(e.value);
    case Hook::kReissueExhausted:
      return "REISSUE_EXHAUSTED " + r + " by " + mh.str() + " after " +
             std::to_string(e.value) + " re-issues";
    default:
      return hook_name(static_cast<std::size_t>(e.hook));
  }
}

void FlightRecorder::dump(std::ostream& os) const {
  os << "-- flight recorder: last " << ring_.size() << " of " << total_
     << " events --\n";
  char stamp[32];
  auto write = [&](std::size_t slot) {
    std::snprintf(stamp, sizeof(stamp), "%12.3f ms  ",
                  ring_[slot].at.to_seconds() * 1e3);
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

void FlightRecorder::on_proxy_created(common::SimTime t, core::MhId mh,
                                      core::NodeAddress host, core::ProxyId p) {
  Entry& e = push(t, Hook::kProxyCreated, mh);
  e.id_a = p.value();
  e.id_b = host.value();
}

void FlightRecorder::on_proxy_deleted(common::SimTime t, core::MhId mh,
                                      core::NodeAddress host, core::ProxyId p,
                                      bool via_gc) {
  Entry& e = push(t, Hook::kProxyDeleted, mh);
  e.id_a = p.value();
  e.id_b = host.value();
  e.flag_a = via_gc;
}

void FlightRecorder::on_request_issued(common::SimTime t, core::MhId mh,
                                       core::RequestId r,
                                       core::NodeAddress server) {
  Entry& e = push(t, Hook::kRequestIssued, mh);
  e.request = r;
  e.id_a = server.value();
}

void FlightRecorder::on_request_reached_proxy(common::SimTime t, core::MhId mh,
                                              core::RequestId r,
                                              core::NodeAddress host) {
  Entry& e = push(t, Hook::kRequestReachedProxy, mh);
  e.request = r;
  e.id_a = host.value();
}

void FlightRecorder::on_result_at_proxy(common::SimTime t, core::MhId mh,
                                        core::RequestId r, std::uint32_t seq) {
  Entry& e = push(t, Hook::kResultAtProxy, mh);
  e.request = r;
  e.seq = seq;
}

void FlightRecorder::on_result_forwarded(common::SimTime t, core::MhId mh,
                                         core::RequestId r, std::uint32_t seq,
                                         core::NodeAddress to,
                                         std::uint32_t attempt, bool del_pref) {
  Entry& e = push(t, Hook::kResultForwarded, mh);
  e.request = r;
  e.seq = seq;
  e.id_a = to.value();
  e.attempt = attempt;
  e.flag_a = del_pref;
}

void FlightRecorder::on_result_delivered(common::SimTime t, core::MhId mh,
                                         core::RequestId r, std::uint32_t seq,
                                         bool final, bool duplicate,
                                         std::uint32_t attempt) {
  Entry& e = push(t, Hook::kResultDelivered, mh);
  e.request = r;
  e.seq = seq;
  e.flag_a = final;
  e.flag_b = duplicate;
  e.attempt = attempt;
}

void FlightRecorder::on_ack_forwarded(common::SimTime t, core::MhId mh,
                                      core::RequestId r, std::uint32_t seq,
                                      bool del_proxy) {
  Entry& e = push(t, Hook::kAckForwarded, mh);
  e.request = r;
  e.seq = seq;
  e.flag_a = del_proxy;
}

void FlightRecorder::on_request_completed(common::SimTime t, core::MhId mh,
                                          core::RequestId r) {
  push(t, Hook::kRequestCompleted, mh).request = r;
}

void FlightRecorder::on_request_lost(common::SimTime t, core::MhId mh,
                                     core::RequestId r,
                                     core::RequestLossReason reason) {
  Entry& e = push(t, Hook::kRequestLost, mh);
  e.request = r;
  e.id_a = static_cast<std::uint32_t>(reason);
  if (loss_sink_ != nullptr && !loss_dumped_) {
    loss_dumped_ = true;
    dump(*loss_sink_);
  }
}

void FlightRecorder::on_handoff_started(common::SimTime t, core::MhId mh,
                                        core::MssId from, core::MssId to) {
  Entry& e = push(t, Hook::kHandoffStarted, mh);
  e.id_a = from.value();
  e.id_b = to.value();
}

void FlightRecorder::on_handoff_completed(common::SimTime t, core::MhId mh,
                                          core::MssId from, core::MssId to,
                                          common::Duration latency,
                                          std::size_t bytes) {
  Entry& e = push(t, Hook::kHandoffCompleted, mh);
  e.id_a = from.value();
  e.id_b = to.value();
  e.value = latency.count_micros();
  e.count_a = bytes;
}

void FlightRecorder::on_update_currentloc(common::SimTime t, core::MhId mh,
                                          core::NodeAddress host,
                                          core::NodeAddress loc) {
  Entry& e = push(t, Hook::kUpdateCurrentloc, mh);
  e.id_a = host.value();
  e.id_b = loc.value();
}

void FlightRecorder::on_mh_registered(common::SimTime t, core::MhId mh,
                                      core::MssId mss,
                                      common::Duration since_greet) {
  Entry& e = push(t, Hook::kMhRegistered, mh);
  e.id_a = mss.value();
  e.value = since_greet.count_micros();
}

void FlightRecorder::on_stale_ack_dropped(common::SimTime t, core::MhId mh,
                                          core::RequestId r) {
  push(t, Hook::kStaleAckDropped, mh).request = r;
}

void FlightRecorder::on_delproxy_with_pending(common::SimTime t, core::MhId mh,
                                              core::ProxyId p) {
  push(t, Hook::kDelproxyWithPending, mh).id_a = p.value();
}

void FlightRecorder::on_orphaned_proxy(common::SimTime t, core::MhId mh,
                                       core::ProxyId p) {
  push(t, Hook::kOrphanedProxy, mh).id_a = p.value();
}

void FlightRecorder::on_mss_crashed(common::SimTime t, core::MssId mss,
                                    std::size_t proxies, std::size_t mhs) {
  Entry& e = push(t, Hook::kMssCrashed, core::MhId::invalid());
  e.id_a = mss.value();
  e.count_a = proxies;
  e.count_b = mhs;
}

void FlightRecorder::on_mss_restarted(common::SimTime t, core::MssId mss,
                                      std::size_t restored) {
  Entry& e = push(t, Hook::kMssRestarted, core::MhId::invalid());
  e.id_a = mss.value();
  e.count_a = restored;
}

void FlightRecorder::on_proxy_restored(common::SimTime t, core::MhId mh,
                                       core::NodeAddress host,
                                       core::ProxyId p) {
  Entry& e = push(t, Hook::kProxyRestored, mh);
  e.id_a = p.value();
  e.id_b = host.value();
}

void FlightRecorder::on_request_reissued(common::SimTime t, core::MhId mh,
                                         core::RequestId r, int attempt) {
  Entry& e = push(t, Hook::kRequestReissued, mh);
  e.request = r;
  e.value = attempt;
}

void FlightRecorder::on_reissue_exhausted(common::SimTime t, core::MhId mh,
                                          core::RequestId r, int attempts) {
  Entry& e = push(t, Hook::kReissueExhausted, mh);
  e.request = r;
  e.value = attempts;
}

}  // namespace rdp::obs
