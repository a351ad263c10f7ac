// Bounded ring buffer of recent protocol events ("flight recorder").
//
// Keeps the last N events of the observer stream so that, when something
// goes wrong late in a long run — a test failure, an invariant violation,
// an on_request_lost — the investigation starts with the tail of protocol
// history instead of a bare counter.  The fault subsystem also records its
// injected faults and wire-level drop decisions here
// (FaultInjector::set_flight_recorder), which the event stream never
// carries.
//
// The tail is almost never read, so an event is only copied into the ring
// as it is; the text is formatted by dump().
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
  static constexpr std::uint32_t kMask = [] {
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
  }();
  [[nodiscard]] std::uint32_t hook_mask() const override { return kMask; }
  void on_event(const core::Event& event) override;

 private:
  // One slot of the ring: an event as recorded, or a free-form record()
  // line whose text lives in text_ at the same slot.
  struct Entry {
    core::Event event;
    bool text = false;
  };

  // Claims the ring slot for the next entry (overwriting the oldest once
  // full) and returns its index.
  std::size_t next_slot();
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
