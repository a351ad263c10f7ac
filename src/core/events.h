// Protocol events for instrumentation.
//
// Tests, examples and benchmarks watch the protocol through these events
// instead of scraping logs.  Every outcome is one Event record delivered to
// RdpObserver::on_event; consumers either take the record as it is (the
// fan-out, the shard buffers, the flight recorder) or override the typed
// hooks it decodes into.  The Fig-3/Fig-4 reproduction benches render a
// message-sequence trace from them; the experiment harness derives its
// metrics (delivery latency, retransmissions, proxy placement, ...) from
// the same events.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/perf_probe.h"

namespace rdp::core {

using common::Duration;
using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::ProxyId;
using common::RequestId;
using common::SimTime;

// Why a request could not be completed (only possible in ablated
// configurations; the full protocol never loses requests).
enum class RequestLossReason {
  kProxyGone,       // forwarded to a proxy that no longer exists
  kMhLeft,          // the Mh left the system with the request pending
  kMssCrashed,      // the hosting Mss crashed with no durable checkpoint
  kReissueExhausted,  // the Mh's re-issue watchdog ran out of attempts
};

// Event kinds, in declaration order of the typed hooks below and of
// obs/event_names.h kHookNames (the events_fanout test pins the
// correspondence).  Used to build hook_mask() subscription bitmasks.
enum class Hook : int {
  kProxyCreated = 0,
  kProxyDeleted,
  kRequestIssued,
  kRequestReachedProxy,
  kResultAtProxy,
  kResultForwarded,
  kResultDelivered,
  kAckForwarded,
  kRequestCompleted,
  kReissueExhausted,
  kRequestLost,
  kArqFrameSent,
  kArqDelivered,
  kHandoffStarted,
  kHandoffCompleted,
  kUpdateCurrentloc,
  kMhRegistered,
  kStaleAckDropped,
  kDelproxyWithPending,
  kOrphanedProxy,
  kMssCrashed,
  kMssRestarted,
  kProxyRestored,
  kRequestReissued,
  kBackupPromoted,
  kMssDeparted,
  kMssRejoined,
  kPrimaryDemoted,
};

[[nodiscard]] constexpr std::uint32_t hook_bit(Hook hook) {
  return 1u << static_cast<int>(hook);
}

// One protocol event.  Every emit site fills one of these and hands it to
// RdpObserver::on_event; buffers and rings store it by value.  Which fields
// carry meaning depends on `kind` — RdpObserver::on_event's decode below is
// the field map.  Ids and addresses travel as raw values in id_a (the
// hook's first id argument) and id_b (its second); Mss-keyed events leave
// `mh` invalid.
struct Event {
  Hook kind = Hook::kProxyCreated;
  SimTime at{};
  MhId mh{};  // invalid unless set
  RequestId request{};
  std::uint32_t id_a = 0;
  std::uint32_t id_b = 0;
  std::uint32_t seq = 0;
  std::uint32_t attempt = 0;
  std::uint64_t epoch = 0;    // ARQ epoch or membership epoch
  std::uint64_t count_a = 0;  // byte, proxy or frame counts
  std::uint64_t count_b = 0;
  Duration duration{};
  RequestLossReason reason = RequestLossReason::kProxyGone;
  bool flag_a = false;
  bool flag_b = false;

  friend bool operator==(const Event&, const Event&) = default;
};
static_assert(std::is_trivially_copyable_v<Event>);

class RdpObserver {
 public:
  virtual ~RdpObserver() = default;

  // Number of event kinds.  When adding one, bump this, name it in
  // obs/event_names.h and decode it in on_event below — the events_fanout
  // test fails if any of them is forgotten.
  static constexpr int kHookCount = 28;
  static constexpr std::uint32_t kAllHooks = (1u << kHookCount) - 1;

  // Which event kinds this observer handles, as a bitmask of hook_bit(Hook)
  // values.  ObserverList reads it once at add() to build per-kind
  // subscriber vectors, so an event nobody subscribed to costs one
  // bit-test and zero virtual calls.  The default claims every kind
  // (always correct, never fast); hot observers narrow it.  The mask must
  // be stable over the observer's lifetime.
  [[nodiscard]] virtual std::uint32_t hook_mask() const { return kAllHooks; }

  // The one entry point: every emit site calls this.  Raw consumers (the
  // fan-out, buffers, rings) override it and pass the record on as it is;
  // the default decodes it into the typed hooks below, so typed consumers
  // override only the hooks they care about.
  virtual void on_event(const Event& e) {
    switch (e.kind) {
      case Hook::kProxyCreated:
        return on_proxy_created(e.at, e.mh, NodeAddress(e.id_a),
                                ProxyId(e.id_b));
      case Hook::kProxyDeleted:
        return on_proxy_deleted(e.at, e.mh, NodeAddress(e.id_a),
                                ProxyId(e.id_b), e.flag_a);
      case Hook::kRequestIssued:
        return on_request_issued(e.at, e.mh, e.request, NodeAddress(e.id_a));
      case Hook::kRequestReachedProxy:
        return on_request_reached_proxy(e.at, e.mh, e.request,
                                        NodeAddress(e.id_a));
      case Hook::kResultAtProxy:
        return on_result_at_proxy(e.at, e.mh, e.request, e.seq);
      case Hook::kResultForwarded:
        return on_result_forwarded(e.at, e.mh, e.request, e.seq,
                                   NodeAddress(e.id_a), e.attempt, e.flag_a);
      case Hook::kResultDelivered:
        return on_result_delivered(e.at, e.mh, e.request, e.seq, e.flag_a,
                                   e.flag_b, e.attempt);
      case Hook::kAckForwarded:
        return on_ack_forwarded(e.at, e.mh, e.request, e.seq, e.flag_a);
      case Hook::kRequestCompleted:
        return on_request_completed(e.at, e.mh, e.request);
      case Hook::kReissueExhausted:
        return on_reissue_exhausted(e.at, e.mh, e.request,
                                    static_cast<int>(e.attempt));
      case Hook::kRequestLost:
        return on_request_lost(e.at, e.mh, e.request, e.reason);
      case Hook::kArqFrameSent:
        return on_arq_frame_sent(e.at, e.mh,
                                 static_cast<std::uint32_t>(e.epoch), e.seq,
                                 e.attempt, e.count_a, e.count_b);
      case Hook::kArqDelivered:
        return on_arq_delivered(e.at, e.mh,
                                static_cast<std::uint32_t>(e.epoch), e.seq,
                                e.flag_a);
      case Hook::kHandoffStarted:
        return on_handoff_started(e.at, e.mh, MssId(e.id_a), MssId(e.id_b));
      case Hook::kHandoffCompleted:
        return on_handoff_completed(e.at, e.mh, MssId(e.id_a), MssId(e.id_b),
                                    e.duration, e.count_a);
      case Hook::kUpdateCurrentloc:
        return on_update_currentloc(e.at, e.mh, NodeAddress(e.id_a),
                                    NodeAddress(e.id_b));
      case Hook::kMhRegistered:
        return on_mh_registered(e.at, e.mh, MssId(e.id_a), e.duration);
      case Hook::kStaleAckDropped:
        return on_stale_ack_dropped(e.at, e.mh, e.request);
      case Hook::kDelproxyWithPending:
        return on_delproxy_with_pending(e.at, e.mh, ProxyId(e.id_a));
      case Hook::kOrphanedProxy:
        return on_orphaned_proxy(e.at, e.mh, ProxyId(e.id_a));
      case Hook::kMssCrashed:
        return on_mss_crashed(e.at, MssId(e.id_a), e.count_a, e.count_b);
      case Hook::kMssRestarted:
        return on_mss_restarted(e.at, MssId(e.id_a), e.count_a);
      case Hook::kProxyRestored:
        return on_proxy_restored(e.at, e.mh, NodeAddress(e.id_a),
                                 ProxyId(e.id_b));
      case Hook::kRequestReissued:
        return on_request_reissued(e.at, e.mh, e.request,
                                   static_cast<int>(e.attempt));
      case Hook::kBackupPromoted:
        return on_backup_promoted(e.at, MssId(e.id_a), MssId(e.id_b),
                                  e.count_a);
      case Hook::kMssDeparted:
        return on_mss_departed(e.at, MssId(e.id_a), e.epoch);
      case Hook::kMssRejoined:
        return on_mss_rejoined(e.at, MssId(e.id_a), e.epoch);
      case Hook::kPrimaryDemoted:
        return on_primary_demoted(e.at, MssId(e.id_a), e.count_a);
    }
  }

 protected:
  // The typed view of the event stream, one hook per kind.  Protected so
  // that nothing emits through them: events enter through on_event, and a
  // typed consumer's public override is what tests may drive directly.

  // --- proxy life-cycle (§3.3) ---
  virtual void on_proxy_created(SimTime, MhId, NodeAddress /*host*/,
                                ProxyId) {}
  virtual void on_proxy_deleted(SimTime, MhId, NodeAddress /*host*/, ProxyId,
                                bool /*via_gc*/) {}

  // --- request path ---
  virtual void on_request_issued(SimTime, MhId, RequestId,
                                 NodeAddress /*server*/) {}
  virtual void on_request_reached_proxy(SimTime, MhId, RequestId,
                                        NodeAddress /*proxy_host*/) {}
  virtual void on_result_at_proxy(SimTime, MhId, RequestId,
                                  std::uint32_t /*seq*/) {}
  virtual void on_result_forwarded(SimTime, MhId, RequestId,
                                   std::uint32_t /*seq*/,
                                   NodeAddress /*to_mss*/,
                                   std::uint32_t /*attempt*/,
                                   bool /*del_pref*/) {}
  virtual void on_result_delivered(SimTime, MhId, RequestId,
                                   std::uint32_t /*seq*/, bool /*final*/,
                                   bool /*app_duplicate*/,
                                   std::uint32_t /*attempt*/) {}
  virtual void on_ack_forwarded(SimTime, MhId, RequestId,
                                std::uint32_t /*seq*/, bool /*del_proxy*/) {}
  virtual void on_request_completed(SimTime, MhId, RequestId) {}
  // The Mh's re-issue watchdog gave up on a request (max attempts reached).
  // Fires immediately before the matching on_request_lost with
  // kReissueExhausted, so abandoned requests are attributable even when a
  // later re-registration would otherwise bury them.
  virtual void on_reissue_exhausted(SimTime, MhId, RequestId,
                                    int /*attempts*/) {}
  virtual void on_request_lost(SimTime, MhId, RequestId, RequestLossReason) {}

  // --- uplink ARQ (src/arq; PROTOCOL.md §11) ---
  // A data frame left the Mh's ARQ sender (first transmission and
  // retransmissions alike; attempt starts at 1).  in_flight counts the frame
  // being sent; window_limit is min(cwnd, configured max) at send time.
  virtual void on_arq_frame_sent(SimTime, MhId, std::uint32_t /*epoch*/,
                                 std::uint32_t /*seq*/,
                                 std::uint32_t /*attempt*/,
                                 std::size_t /*in_flight*/,
                                 std::size_t /*window_limit*/) {}
  // The Mss-side receiver processed a data frame.  duplicate=false means the
  // inner message was handed to the proxy path (in cumulative order);
  // duplicate=true means the dedupe filter absorbed it.
  virtual void on_arq_delivered(SimTime, MhId, std::uint32_t /*epoch*/,
                                std::uint32_t /*seq*/, bool /*duplicate*/) {}

  // --- mobility (§3.2) ---
  virtual void on_handoff_started(SimTime, MhId, MssId /*from*/,
                                  MssId /*to*/) {}
  virtual void on_handoff_completed(SimTime, MhId, MssId /*from*/,
                                    MssId /*to*/, Duration /*latency*/,
                                    std::size_t /*state_bytes*/) {}
  virtual void on_update_currentloc(SimTime, MhId,
                                    NodeAddress /*proxy_host*/,
                                    NodeAddress /*new_loc*/) {}
  virtual void on_mh_registered(SimTime, MhId, MssId,
                                Duration /*since_greet*/) {}

  // --- anomalies (counted; only reachable in ablated configurations) ---
  virtual void on_stale_ack_dropped(SimTime, MhId, RequestId) {}
  virtual void on_delproxy_with_pending(SimTime, MhId, ProxyId) {}
  virtual void on_orphaned_proxy(SimTime, MhId, ProxyId) {}

  // --- fault injection (src/fault; the paper assumes Mss's never fail) ---
  virtual void on_mss_crashed(SimTime, MssId, std::size_t /*proxies_lost*/,
                              std::size_t /*mhs_detached*/) {}
  virtual void on_mss_restarted(SimTime, MssId,
                                std::size_t /*proxies_restored*/) {}
  virtual void on_proxy_restored(SimTime, MhId, NodeAddress /*host*/,
                                 ProxyId) {}
  virtual void on_request_reissued(SimTime, MhId, RequestId,
                                   int /*attempt*/) {}
  // A backup Mss detected its primary's crash (lease expiry or an explicit
  // transfer-resume) and promoted the shadow table: the primary's proxies
  // now live at the backup, without waiting for Mss::restart.
  virtual void on_backup_promoted(SimTime, MssId /*primary*/,
                                  MssId /*backup*/,
                                  std::size_t /*proxies_adopted*/) {}

  // --- dynamic membership (src/replication membership service) ---
  // The membership service declared the Mss departed: it stayed unreachable
  // past the departure threshold, its chain roles were re-assigned, and the
  // ring was repaired at the given membership epoch.
  virtual void on_mss_departed(SimTime, MssId, std::uint64_t /*epoch*/) {}
  // A departed Mss is reachable again (restart or partition heal) and was
  // re-admitted to the ring.
  virtual void on_mss_rejoined(SimTime, MssId, std::uint64_t /*epoch*/) {}
  // A departed-but-still-running primary was fenced by a chain member and
  // dropped its live proxies instead of racing the promoted backup.
  virtual void on_primary_demoted(SimTime, MssId,
                                  std::size_t /*proxies_dropped*/) {}
};

// Fans one event stream out to several observers through flattened
// dispatch: add() reads each observer's hook_mask() once and builds
// per-kind subscriber vectors plus a 32-bit active-kind mask, so an event
// nobody subscribed to costs a single bit-test — no probe, no virtual
// calls — and a subscribed one walks only its actual subscribers, in add()
// order.  The RDP_PROF_HOOK_SCOPE probe lets the profiler (docs/
// PROTOCOL.md §13) attribute fan-out time per event kind.
class ObserverList final : public RdpObserver {
 public:
  // Lifetime contract: the list stores the raw pointer and does NOT take
  // ownership — every added observer must outlive the ObserverList (or at
  // least every entity that emits into it).  There is no remove(); the
  // harness builds worlds whose observers live as long as the world, and
  // ad-hoc observers (tests, benches) are stack objects destroyed after
  // the simulation has drained.
  void add(RdpObserver* observer) {
    observers_.push_back(observer);
    const std::uint32_t mask = observer->hook_mask();
    active_mask_ |= mask;
    for (int h = 0; h < kHookCount; ++h) {
      if ((mask & (1u << h)) != 0) by_hook_[h].push_back(observer);
    }
  }

  [[nodiscard]] std::size_t size() const { return observers_.size(); }

  // Union of the added observers' masks.  Also serves as this list's own
  // hook_mask(), so nested lists flatten correctly.
  [[nodiscard]] std::uint32_t active_mask() const { return active_mask_; }
  [[nodiscard]] std::uint32_t hook_mask() const override {
    return active_mask_;
  }

  // Subscribers of one kind, in add() order (the fan-out order).
  [[nodiscard]] const std::vector<RdpObserver*>& subscribers(Hook hook) const {
    return by_hook_[static_cast<std::size_t>(hook)];
  }

  void on_event(const Event& event) override {
    const int h = static_cast<int>(event.kind);
    if ((active_mask_ & (1u << h)) != 0) fan_out(h, event);
  }

 private:
  // Kept apart from on_event so that the unsubscribed case stays a bare
  // bit-test the compiler can inline, without the probe's set-up.
  void fan_out(int h, const Event& event) const {
    RDP_PROF_HOOK_SCOPE(h);
    for (auto* o : by_hook_[h]) o->on_event(event);
  }

  std::vector<RdpObserver*> observers_;
  std::array<std::vector<RdpObserver*>, kHookCount> by_hook_;
  std::uint32_t active_mask_ = 0;
};

}  // namespace rdp::core
