// Online auditor for the paper's delivery guarantees.
//
// Watches the observer stream of a running system and checks, while the
// simulation executes, the properties §3–§4 of Endler/Silva/Okuda promise:
//
//   R1  at most one live proxy per mobile host (§3.3's "the proxy stays at
//       the Mss where the request was issued") — relaxed when the Mh
//       re-issue extension is on, because a crash of the pref-holding Mss
//       legitimately leaves a doomed proxy behind while the re-issued
//       request creates a fresh one.  A proxy whose del-proxy ack has been
//       forwarded is "closing", not live: its deletion order is still on
//       the wire, and a new proxy created in that window is legal;
//   R2  no result delivered to an Mh that never issued the request;
//   R3  result sequence numbers arrive at the proxy in increasing order per
//       request (stream results, §4) — relaxed when causal ordering is off
//       or re-issue can re-query old sequence numbers;
//   R4  a del-proxy teardown never removes a proxy that still has pending
//       requests (GC'd abandoned proxies first report their pending
//       requests as lost, so they are exempt);
//   R5  exactly-once application delivery: a non-duplicate *final* delivery
//       happens at most once per request (assumption-5 filter);
//   R6  a request completes at the proxy only after its result was
//       delivered to the Mh (Ack precedes completion);
//   R7  at most one live primary per proxy set (replication extension,
//       PROTOCOL.md §8): a backup may promote a primary's shadows only
//       while that primary is down or departed, and a second promotion of
//       the same primary is legal only after the previous promoter itself
//       died.  The promoter book is cleared when the primary rejoins (the
//       fenced primary demoted itself; ownership settled).
//
// With the uplink ARQ subsystem (src/arq, PROTOCOL.md §11) enabled, two
// channel-level invariants are checked as well:
//
//   A1  the receiver hands frames to the protocol in order and exactly
//       once: per (Mh, epoch), non-duplicate deliveries carry consecutive
//       sequence numbers starting at 0;
//   A2  the sender's window never exceeds its advertised limit at
//       admission: a *first* transmission (attempt == 1) reporting
//       in_flight > window_limit is a congestion-control bug.
//       Retransmissions are exempt — cwnd may have halved below the number
//       of frames already in flight, which is legal (the window bounds
//       admission, not retransmission).
//
// Quiesce accounting — delivered + lost == issued once the event queue
// drains — cannot be checked online; call check_quiesced() after
// run_to_quiescence().
//
// A violation is recorded (and optionally aborts the process: set
// Config::fatal or export RDP_AUDIT_FATAL=1, which is how CI turns every
// test into an invariant check).  When a FlightRecorder is attached, the
// first violation dumps the recent event tail to stderr.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/events.h"

namespace rdp::core {
class Directory;
}

namespace rdp::obs {

class FlightRecorder;

class InvariantAuditor final : public core::RdpObserver {
 public:
  struct Config {
    // R1 off: re-issue after a crash may briefly give an Mh two proxies.
    bool allow_proxy_coexistence = false;
    // R3 off: no causal order, or re-query can replay old sequence numbers.
    bool allow_result_reordering = false;
    // R4 off: ablations that race del-proxy against in-flight requests.
    bool allow_delproxy_with_pending = false;
    // Abort the process on the first violation (CI mode).  OR-ed with the
    // RDP_AUDIT_FATAL environment variable.
    bool fatal = false;
    // Tests that trip the auditor on purpose set this to false so a CI run
    // with RDP_AUDIT_FATAL=1 does not abort on the expected violation.
    bool honor_fatal_env = true;
  };

  InvariantAuditor() : InvariantAuditor(Config{}, nullptr) {}
  explicit InvariantAuditor(Config config,
                            const core::Directory* directory = nullptr);

  // When set, the first violation dumps the recorder tail to stderr.
  void set_flight_recorder(const FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  // Widen the allowances (never narrows; `fatal` is unaffected).  The
  // fault injector calls this when arming a plan: injected crashes and
  // wire-level drops legitimately produce proxy coexistence and result
  // reordering that the un-faulted protocol forbids.
  void relax(const Config& allow) {
    config_.allow_proxy_coexistence |= allow.allow_proxy_coexistence;
    config_.allow_result_reordering |= allow.allow_result_reordering;
    config_.allow_delproxy_with_pending |= allow.allow_delproxy_with_pending;
  }

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool clean() const { return violations_.empty(); }
  [[nodiscard]] const Config& config() const { return config_; }

  // Requests observed so far (issued / delivered at least once / lost).
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t finished() const { return finished_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }

  // Post-quiescence accounting: every issued request either delivered its
  // final result or was reported lost.  Records a violation per straggler.
  // Returns true when the books balance.
  bool check_quiesced();

  void write_report(std::ostream& os) const;

  // --- RdpObserver ---------------------------------------------------------
  [[nodiscard]] std::uint32_t hook_mask() const override {
    using core::Hook;
    using core::hook_bit;
    return hook_bit(Hook::kProxyCreated) | hook_bit(Hook::kProxyDeleted) |
           hook_bit(Hook::kRequestIssued) |
           hook_bit(Hook::kRequestReachedProxy) |
           hook_bit(Hook::kResultAtProxy) | hook_bit(Hook::kResultDelivered) |
           hook_bit(Hook::kRequestCompleted) | hook_bit(Hook::kRequestLost) |
           hook_bit(Hook::kAckForwarded) |
           hook_bit(Hook::kDelproxyWithPending) |
           hook_bit(Hook::kMssCrashed) | hook_bit(Hook::kMssRestarted) |
           hook_bit(Hook::kMssDeparted) | hook_bit(Hook::kMssRejoined) |
           hook_bit(Hook::kProxyRestored) | hook_bit(Hook::kBackupPromoted) |
           hook_bit(Hook::kArqFrameSent) | hook_bit(Hook::kArqDelivered);
  }
  void on_proxy_created(common::SimTime, core::MhId, core::NodeAddress,
                        core::ProxyId) override;
  void on_proxy_deleted(common::SimTime, core::MhId, core::NodeAddress,
                        core::ProxyId, bool) override;
  void on_request_issued(common::SimTime, core::MhId, core::RequestId,
                         core::NodeAddress) override;
  void on_request_reached_proxy(common::SimTime, core::MhId, core::RequestId,
                                core::NodeAddress) override;
  void on_result_at_proxy(common::SimTime, core::MhId, core::RequestId,
                          std::uint32_t) override;
  void on_result_delivered(common::SimTime, core::MhId, core::RequestId,
                           std::uint32_t, bool, bool, std::uint32_t) override;
  void on_request_completed(common::SimTime, core::MhId,
                            core::RequestId) override;
  void on_request_lost(common::SimTime, core::MhId, core::RequestId,
                       core::RequestLossReason) override;
  void on_ack_forwarded(common::SimTime, core::MhId, core::RequestId,
                        std::uint32_t, bool) override;
  void on_delproxy_with_pending(common::SimTime, core::MhId,
                                core::ProxyId) override;
  void on_mss_crashed(common::SimTime, core::MssId, std::size_t,
                      std::size_t) override;
  void on_mss_restarted(common::SimTime, core::MssId, std::size_t) override;
  void on_mss_departed(common::SimTime, core::MssId, std::uint64_t) override;
  void on_mss_rejoined(common::SimTime, core::MssId, std::uint64_t) override;
  void on_proxy_restored(common::SimTime, core::MhId, core::NodeAddress,
                         core::ProxyId) override;
  void on_backup_promoted(common::SimTime, core::MssId, core::MssId,
                          std::size_t) override;
  void on_arq_frame_sent(common::SimTime, core::MhId, std::uint32_t,
                         std::uint32_t, std::uint32_t, std::size_t,
                         std::size_t) override;
  void on_arq_delivered(common::SimTime, core::MhId, std::uint32_t,
                        std::uint32_t, bool) override;

 private:
  // One request's history.  Books only grow: a request keeps its book after
  // it completes or is lost, so a late event still finds it.
  struct RequestBook {
    core::RequestId id;
    std::uint32_t mh_book = 0;  // index of id.mh()'s book in mh_books_
    // Host of the proxy the request last reached; a revisit-pattern Mh can
    // have its newest request served by a fresh proxy while the previous
    // one is still closing, so R4 must blame deletions per-proxy.
    core::NodeAddress proxy_host;  // default-invalid until it reaches one
    std::uint32_t max_seq_at_proxy = 0;
    bool any_seq_at_proxy = false;
    bool reached_proxy = false;
    bool delivered_any = false;      // at least one downlink reached the app
    bool final_delivered = false;    // non-duplicate final delivery seen
    bool completed = false;
    bool lost = false;

    // The requests R4 checks: reached a proxy, neither completed nor lost.
    [[nodiscard]] bool open() const {
      return reached_proxy && !completed && !lost;
    }
  };

  // A proxy incarnation: its host and its id there.
  struct ProxyRef {
    core::NodeAddress host;
    core::ProxyId id;
    friend bool operator==(ProxyRef, ProxyRef) = default;
  };

  // One Mh's books, created at its first event.  Each list holds what is
  // in flight for that Mh (a proxy or two, a few open requests, the ARQ
  // epochs it has used), so a scan of it is short.
  struct MhBook {
    // Live proxies.  A proxy whose del-proxy ack has been forwarded leaves
    // this list at once, though its deletion lands one wire latency later:
    // it is closing, and R1 no longer counts it.
    std::vector<ProxyRef> live;
    // Open requests, as indices into requests_, in seq order.
    std::vector<std::uint32_t> open;
    // A1: next expected in-order ARQ delivery per epoch, oldest epoch first.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> arq_next;
  };

  void violate(common::SimTime at, const std::string& what);
  void add_live_proxy(common::SimTime at, core::MhId mh,
                      core::NodeAddress host, core::ProxyId p,
                      const char* how);
  // Index of r's book, created (with its Mh's book) when absent; .second
  // tells whether it was.
  std::pair<std::uint32_t, bool> request_book(core::RequestId r);
  std::uint32_t mh_book(core::MhId mh);
  void list_open(std::uint32_t request);
  void unlist_open(std::uint32_t request);
  // Drops every proxy hosted at `host` from the live books.
  void forget_host(core::NodeAddress host);

  Config config_;
  const core::Directory* directory_;
  const FlightRecorder* recorder_ = nullptr;

  std::vector<std::string> violations_;
  std::vector<RequestBook> requests_;
  common::FlatMap<std::uint32_t> request_index_;  // RequestId::packed()
  std::vector<MhBook> mh_books_;
  common::FlatMap<std::uint32_t> mh_index_;  // MhId::value()
  // R7 bookkeeping: membership as seen through the observer stream, plus
  // which backup currently owns each promoted primary's proxy set.
  std::set<core::MssId> down_mss_;
  std::set<core::MssId> departed_mss_;
  std::map<core::MssId, core::MssId> promoter_of_;

  std::uint64_t issued_ = 0;
  std::uint64_t finished_ = 0;  // final delivery seen
  std::uint64_t lost_ = 0;
};

}  // namespace rdp::obs
