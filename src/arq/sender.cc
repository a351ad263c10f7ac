#include "arq/sender.h"

#include <cstddef>
#include <utility>

#include "common/check.h"
#include "net/message.h"
#include "obs/perf_probe.h"

namespace rdp::arq {

namespace {

RttEstimator::Params estimator_params(const core::ArqConfig& config) {
  RttEstimator::Params params;
  params.initial_rto = config.initial_rto;
  params.min_rto = config.min_rto;
  params.max_rto = config.max_rto;
  return params;
}

}  // namespace

ArqSender::ArqSender(sim::Simulator& simulator,
                     net::WirelessChannel& wireless,
                     const core::ArqConfig& config,
                     core::RdpObserver& observer,
                     stats::CounterRegistry& counters, common::MhId mh)
    : simulator_(simulator),
      wireless_(wireless),
      config_(config),
      observer_(observer),
      counters_(counters),
      mh_(mh),
      estimator_(estimator_params(config)),
      cwnd_(config.max_window, config.cwnd_increment, config.cwnd_backoff) {
  RDP_CHECK(config_.enabled(), "ArqSender built with arq.mode == kOff");
}

std::size_t ArqSender::window_limit() const {
  if (config_.mode == core::ArqMode::kStopAndWait) return 1;
  return std::min(static_cast<std::size_t>(config_.max_window),
                  static_cast<std::size_t>(cwnd_.window()));
}

void ArqSender::open() {
  open_ = true;
  ++epoch_;
  // Everything unacked rejoins the head of the send queue (the window is
  // already the frames' prefix, in sequence order), then the whole backlog
  // is renumbered from 0 for the new receiver.
  for (std::size_t i = 0; i < in_flight_; ++i) {
    frames_[i].sacked = false;
    frames_[i].sack_misses = 0;
  }
  in_flight_ = 0;
  next_seq_ = 0;
  for (Frame& frame : frames_) frame.seq = next_seq_++;
  // The registration almost certainly moved the Mh to a different cell;
  // neither the old path's RTT nor its congestion window carry over.
  estimator_ = RttEstimator(estimator_params(config_));
  cwnd_.reset();
  pump();
}

void ArqSender::pause() {
  open_ = false;
  rto_timer_.cancel();
}

void ArqSender::clear() {
  pause();
  frames_.clear();
  in_flight_ = 0;
}

void ArqSender::enqueue(net::PayloadPtr inner, sim::EventPriority priority) {
  RDP_PROF_SCOPE(kArq);
  Frame frame;
  frame.inner = std::move(inner);
  frame.priority = priority;
  if (open_) {
    frame.seq = next_seq_++;
    frames_.push_back(std::move(frame));
    pump();
  } else {
    // Sequenced at the next open()'s renumbering pass.
    frames_.push_back(std::move(frame));
  }
}

void ArqSender::pump() {
  while (open_ && in_flight_ < frames_.size() && in_flight_ < window_limit()) {
    ++in_flight_;
    transmit(in_flight_ - 1);
  }
}

void ArqSender::transmit(std::size_t index) {
  Frame& frame = frames_[index];
  ++frame.attempt;
  frame.sent_at = simulator_.now();
  frame.sack_misses = 0;
  counters_.increment("arq.frames_sent");
  if (frame.attempt > 1) counters_.increment("arq.retransmits");
  observer_.on_event({.kind = core::Hook::kArqFrameSent,
                      .at = simulator_.now(),
                      .mh = mh_,
                      .seq = frame.seq,
                      .attempt = frame.attempt,
                      .epoch = epoch_,
                      .count_a = in_flight_,
                      .count_b = window_limit()});
  // Index again rather than hold `frame` across the observers' code: an
  // enqueue from there would reallocate frames_.
  const Frame& sent = frames_[index];
  wireless_.uplink(mh_,
                   net::make_message<core::MsgArqData>(epoch_, sent.seq,
                                                       sent.attempt,
                                                       sent.inner),
                   sent.priority);
  arm_rto();
}

std::size_t ArqSender::oldest_unsacked() const {
  std::size_t index = 0;
  while (index < in_flight_ && frames_[index].sacked) ++index;
  return index;
}

void ArqSender::arm_rto() {
  rto_timer_.cancel();
  if (!open_) return;
  const std::size_t oldest = oldest_unsacked();
  if (oldest == in_flight_) return;
  const common::SimTime deadline = frames_[oldest].sent_at + estimator_.rto();
  common::Duration delay = deadline - simulator_.now();
  if (delay < common::Duration::zero()) delay = common::Duration::zero();
  // An RTO cascade only retransmits over the radio, so the timer carries
  // the wireless latency as its reaction bound (sharded-kernel lookahead).
  rto_timer_ = simulator_.schedule_bounded(delay, wireless_.reaction_bound(),
                                           [this] { on_rto(); });
}

void ArqSender::on_rto() {
  RDP_PROF_SCOPE(kArq);
  if (!open_) return;
  const std::size_t oldest = oldest_unsacked();
  if (oldest == in_flight_) return;
  const common::SimTime deadline = frames_[oldest].sent_at + estimator_.rto();
  if (simulator_.now() < deadline) {
    // A retransmission moved sent_at forward since this timer was armed.
    arm_rto();
    return;
  }
  counters_.increment("arq.rto_backoffs");
  estimator_.backoff();  // Karn: persists until the next clean sample
  cwnd_.on_loss();
  if (static_cast<int>(frames_[oldest].attempt) >= config_.max_frame_retries) {
    // Give up on this frame; end-to-end recovery (the re-issue watchdog)
    // owns it now.  NOTE: the receiver's cumulative counter can never pass
    // the abandoned seq, so later frames stall until the next epoch — the
    // watchdog's re-registration resets both ends.
    counters_.increment("arq.frame_gave_up");
    frames_.erase(frames_.begin() + static_cast<std::ptrdiff_t>(oldest));
    --in_flight_;
    pump();
    arm_rto();
    return;
  }
  transmit(oldest);
}

void ArqSender::on_ack(const core::MsgArqAck& ack) {
  RDP_PROF_SCOPE(kArq);
  if (!open_ || ack.epoch != epoch_) {
    counters_.increment("arq.stale_acks");
    return;
  }
  std::size_t acked = 0;
  while (acked < in_flight_ && frames_[acked].seq < ack.cum_next) {
    const Frame& frame = frames_[acked];
    // Karn's rule: only a first-transmission ack yields an unambiguous RTT.
    if (frame.attempt == 1) {
      estimator_.sample(simulator_.now() - frame.sent_at);
    }
    cwnd_.on_ack();
    ++acked;
  }
  frames_.erase(frames_.begin(),
                frames_.begin() + static_cast<std::ptrdiff_t>(acked));
  in_flight_ -= acked;
  bool newly_acked = acked > 0;
  if (config_.mode == core::ArqMode::kSlidingWindow) {
    // Selective acks: mark survivors, then retransmit the frames the
    // receiver keeps reporting a gap in front of.
    std::uint32_t max_sacked = 0;
    bool any_sack = false;
    for (std::size_t i = 0; i < in_flight_; ++i) {
      Frame& frame = frames_[i];
      if (frame.seq <= ack.cum_next) continue;
      const std::uint32_t bit = frame.seq - ack.cum_next - 1;
      if (bit < 64 && ((ack.sack >> bit) & 1ull) != 0) {
        if (!frame.sacked) {
          frame.sacked = true;
          cwnd_.on_ack();
          newly_acked = true;
        }
        if (!any_sack || frame.seq > max_sacked) max_sacked = frame.seq;
        any_sack = true;
      }
    }
    if (any_sack) {
      for (std::size_t i = 0; i < in_flight_; ++i) {
        Frame& frame = frames_[i];
        if (frame.sacked || frame.seq >= max_sacked) continue;
        if (++frame.sack_misses >= config_.fast_retransmit_misses &&
            static_cast<int>(frame.attempt) < config_.max_frame_retries) {
          counters_.increment("arq.fast_retransmits");
          cwnd_.on_loss();
          transmit(i);
        }
      }
    }
  }
  if (newly_acked) pump();
  arm_rto();
}

}  // namespace rdp::arq
