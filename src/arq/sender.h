// Mh-side uplink ARQ channel (PROTOCOL.md §11).
//
// Sits between the MobileHostAgent and the WirelessChannel: application
// uplink messages (requests, unsubscribes, result Acks) are framed as
// MsgArqData with per-epoch sequence numbers, transmitted under a sliding
// window (stop-and-wait is the window-of-one special case), and
// retransmitted on an adaptive RTO (Jacobson estimator, Karn's rule,
// exponential backoff) or on SACK-observed gaps (fast retransmit).  An AIMD
// congestion window bounds frames in flight.
//
// The channel's lifetime is tied to the Mh's registration: open() on every
// registrationAck bumps the epoch and renumbers everything still pending
// from seq 0 (the new respMss has no ARQ state — the epoch tells its
// receiver to start fresh), pause() on power-off / migration / watchdog
// reset stops the timer while the radio cannot transmit.  Registration
// traffic itself (join/greet/leave) never rides the channel.
//
// Determinism: the sender draws no randomness and schedules only through
// the simulator's slab timers, so ShardedWorld runs stay bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "arq/congestion.h"
#include "arq/rtt_estimator.h"
#include "common/ids.h"
#include "core/config.h"
#include "core/events.h"
#include "core/messages.h"
#include "net/wireless.h"
#include "sim/simulator.h"
#include "stats/counters.h"

namespace rdp::arq {

class ArqSender {
 public:
  ArqSender(sim::Simulator& simulator, net::WirelessChannel& wireless,
            const core::ArqConfig& config, core::RdpObserver& observer,
            stats::CounterRegistry& counters, common::MhId mh);

  ArqSender(const ArqSender&) = delete;
  ArqSender& operator=(const ArqSender&) = delete;

  // Registration completed: start a new channel epoch.  Frames still
  // pending from the previous epoch (unacked or never sent) are renumbered
  // from seq 0 and retransmitted first — end-to-end dedup (proxy request
  // ids, the Mh's assumption-5 result filter) absorbs any re-delivery.
  void open();

  // The radio can no longer transmit (power-off, migration, watchdog
  // de-registration).  Pending frames are kept for the next epoch.
  void pause();

  // Drop everything pending (the Mh leaves the system for good).
  void clear();

  // Submit one application message.  While the channel is closed the frame
  // queues and goes out on the next open().
  void enqueue(net::PayloadPtr inner, sim::EventPriority priority);

  // Ack from the respMss's receiver (epoch-checked; stale acks ignored).
  void on_ack(const core::MsgArqAck& ack);

  [[nodiscard]] bool is_open() const { return open_; }
  [[nodiscard]] bool idle() const { return frames_.empty(); }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t queued() const {
    return frames_.size() - in_flight_;
  }
  [[nodiscard]] std::size_t window_limit() const;
  [[nodiscard]] const RttEstimator& estimator() const { return estimator_; }
  [[nodiscard]] const AimdWindow& congestion() const { return cwnd_; }

 private:
  struct Frame {
    net::PayloadPtr inner;
    sim::EventPriority priority = sim::EventPriority::kNormal;
    std::uint32_t seq = 0;
    std::uint32_t attempt = 0;  // transmissions so far (1 = sent once)
    common::SimTime sent_at;
    bool sacked = false;
    int sack_misses = 0;
  };

  void pump();
  // Transmits frames_[index], which must lie in the window.
  void transmit(std::size_t index);
  void arm_rto();
  void on_rto();
  // Index of the oldest unsacked frame in the window; in_flight_ if none.
  [[nodiscard]] std::size_t oldest_unsacked() const;

  sim::Simulator& simulator_;
  net::WirelessChannel& wireless_;
  const core::ArqConfig& config_;
  core::RdpObserver& observer_;
  stats::CounterRegistry& counters_;
  common::MhId mh_;

  RttEstimator estimator_;
  AimdWindow cwnd_;
  bool open_ = false;
  std::uint32_t epoch_ = 0;
  std::uint32_t next_seq_ = 0;
  // Every pending frame in ascending seq: the first in_flight_ are the
  // window (transmitted, unacked), the rest the send queue.  The storage is
  // kept across acks and epochs, so a steady stream allocates nothing.
  std::vector<Frame> frames_;
  std::size_t in_flight_ = 0;
  sim::TimerHandle rto_timer_;
};

}  // namespace rdp::arq
