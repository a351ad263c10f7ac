// Bounded ring buffer of recent protocol events ("flight recorder").
//
// Keeps the last N events of the observer stream so that, when something
// goes wrong late in a long run — a test failure, an invariant violation,
// an on_request_lost — the investigation starts with the tail of protocol
// history instead of a bare counter.  The fault subsystem also records its
// injected faults and wire-level drop decisions here
// (FaultInjector::set_flight_recorder), which plain RdpObserver hooks never
// see.
//
// The tail is almost never read, so a hook only copies its arguments into
// a fixed-size record in the ring; the text is formatted by dump().
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/events.h"

namespace rdp::obs {

class FlightRecorder final : public core::RdpObserver {
 public:
  explicit FlightRecorder(std::size_t capacity = 512);

  // Append one line; oldest entries are overwritten once full.  Public so
  // non-observer subsystems (fault injection, benches) can add context.
  void record(common::SimTime at, std::string line);

  // Write the retained tail, oldest first.
  void dump(std::ostream& os) const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Entries currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;
  // Entries ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  void clear();

  // When set, an on_request_lost event dumps the tail to the stream (one
  // dump per recorder; reset with clear()).  Off by default because some
  // experiments lose requests by design at scale.
  void dump_on_loss(std::ostream* os) { loss_sink_ = os; }

  // --- RdpObserver ---------------------------------------------------------
  [[nodiscard]] std::uint32_t hook_mask() const override {
    using core::Hook;
    using core::hook_bit;
    return hook_bit(Hook::kProxyCreated) | hook_bit(Hook::kProxyDeleted) |
           hook_bit(Hook::kRequestIssued) |
           hook_bit(Hook::kRequestReachedProxy) |
           hook_bit(Hook::kResultAtProxy) | hook_bit(Hook::kResultForwarded) |
           hook_bit(Hook::kResultDelivered) | hook_bit(Hook::kAckForwarded) |
           hook_bit(Hook::kRequestCompleted) | hook_bit(Hook::kRequestLost) |
           hook_bit(Hook::kHandoffStarted) | hook_bit(Hook::kHandoffCompleted) |
           hook_bit(Hook::kUpdateCurrentloc) | hook_bit(Hook::kMhRegistered) |
           hook_bit(Hook::kStaleAckDropped) |
           hook_bit(Hook::kDelproxyWithPending) |
           hook_bit(Hook::kOrphanedProxy) | hook_bit(Hook::kMssCrashed) |
           hook_bit(Hook::kMssRestarted) | hook_bit(Hook::kProxyRestored) |
           hook_bit(Hook::kRequestReissued) |
           hook_bit(Hook::kReissueExhausted);
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
  void on_result_forwarded(common::SimTime, core::MhId, core::RequestId,
                           std::uint32_t, core::NodeAddress, std::uint32_t,
                           bool) override;
  void on_result_delivered(common::SimTime, core::MhId, core::RequestId,
                           std::uint32_t, bool, bool, std::uint32_t) override;
  void on_ack_forwarded(common::SimTime, core::MhId, core::RequestId,
                        std::uint32_t, bool) override;
  void on_request_completed(common::SimTime, core::MhId,
                            core::RequestId) override;
  void on_request_lost(common::SimTime, core::MhId, core::RequestId,
                       core::RequestLossReason) override;
  void on_handoff_started(common::SimTime, core::MhId, core::MssId,
                          core::MssId) override;
  void on_handoff_completed(common::SimTime, core::MhId, core::MssId,
                            core::MssId, common::Duration,
                            std::size_t) override;
  void on_update_currentloc(common::SimTime, core::MhId, core::NodeAddress,
                            core::NodeAddress) override;
  void on_mh_registered(common::SimTime, core::MhId, core::MssId,
                        common::Duration) override;
  void on_stale_ack_dropped(common::SimTime, core::MhId,
                            core::RequestId) override;
  void on_delproxy_with_pending(common::SimTime, core::MhId,
                                core::ProxyId) override;
  void on_orphaned_proxy(common::SimTime, core::MhId, core::ProxyId) override;
  void on_mss_crashed(common::SimTime, core::MssId, std::size_t,
                      std::size_t) override;
  void on_mss_restarted(common::SimTime, core::MssId, std::size_t) override;
  void on_proxy_restored(common::SimTime, core::MhId, core::NodeAddress,
                         core::ProxyId) override;
  void on_request_reissued(common::SimTime, core::MhId, core::RequestId,
                           int) override;
  void on_reissue_exhausted(common::SimTime, core::MhId, core::RequestId,
                            int) override;

 private:
  // One event as its raw arguments; which fields are meaningful depends on
  // the hook.  Free-form record() lines keep their text in text_, at the
  // same slot.
  struct Entry {
    common::SimTime at;
    core::Hook hook = core::Hook::kProxyCreated;
    bool text = false;
    bool flag_a = false;
    bool flag_b = false;
    core::RequestId request;
    std::uint32_t mh = 0;
    std::uint32_t id_a = 0;  // proxy, host, server, Mss or loss reason
    std::uint32_t id_b = 0;  // second address or Mss
    std::uint32_t seq = 0;
    std::uint32_t attempt = 0;
    std::int64_t value = 0;  // a duration in micros, or a signed count
    std::uint64_t count_a = 0;
    std::uint64_t count_b = 0;
  };

  // Claims the ring slot for the next event (overwriting the oldest once
  // full) and returns its index.
  std::size_t next_slot();
  Entry& push(common::SimTime at, core::Hook hook, core::MhId mh);
  [[nodiscard]] std::string format(std::size_t slot) const;

  std::size_t capacity_;
  std::vector<Entry> ring_;
  std::vector<std::string> text_;  // record() lines, by ring slot
  std::size_t next_ = 0;  // slot the next record lands in once full
  std::uint64_t total_ = 0;
  std::ostream* loss_sink_ = nullptr;
  bool loss_dumped_ = false;
};

}  // namespace rdp::obs
