#include "arq/receiver.h"

#include <utility>

#include "net/message.h"
#include "obs/perf_probe.h"

namespace rdp::arq {

bool ArqReceiver::on_uplink(common::MhId from, const net::PayloadPtr& payload,
                            const Deliver& deliver) {
  RDP_PROF_SCOPE(kArq);
  const auto* frame = dynamic_cast<const core::MsgArqData*>(payload.get());
  if (frame == nullptr) return false;

  Channel& chan = channels_[from];
  if (chan.seen && frame->epoch < chan.epoch) {
    // A straggler from a previous incarnation of the channel (the Mh has
    // re-registered since).  Not ours to ack.
    counters_.increment("arq.stale_frames");
    return true;
  }
  if (!chan.seen || frame->epoch > chan.epoch) {
    chan = Channel{};
    chan.seen = true;
    chan.epoch = frame->epoch;
  }

  const common::SimTime now = simulator_.now();
  if (frame->seq < chan.cum_next || chan.buffered.count(frame->seq) != 0) {
    counters_.increment("arq.duplicates_dropped");
    observer_.on_event({.kind = core::Hook::kArqDelivered,
                        .at = now,
                        .mh = from,
                        .seq = frame->seq,
                        .epoch = chan.epoch,
                        .flag_a = true});  // duplicate
  } else {
    chan.buffered.emplace(frame->seq, frame->inner);
    // Drain the cumulative prefix into the proxy path.
    auto it = chan.buffered.find(chan.cum_next);
    while (it != chan.buffered.end()) {
      net::PayloadPtr inner = std::move(it->second);
      chan.buffered.erase(it);
      counters_.increment("arq.frames_delivered");
      observer_.on_event({.kind = core::Hook::kArqDelivered,
                          .at = now,
                          .mh = from,
                          .seq = chan.cum_next,
                          .epoch = chan.epoch});
      ++chan.cum_next;
      deliver(from, inner);
      it = chan.buffered.find(chan.cum_next);
    }
  }

  // Ack every data frame — duplicates included, since a duplicate usually
  // means our previous ack was lost.  Bit i of the SACK map covers seq
  // cum_next + 1 + i (seq == cum_next is the hole being waited on).
  std::uint64_t sack = 0;
  for (const auto& [seq, _] : chan.buffered) {
    const std::uint32_t bit = seq - chan.cum_next - 1;
    if (bit < 64) sack |= 1ull << bit;
  }
  counters_.increment("arq.acks_sent");
  wireless_.downlink(
      cell_, from,
      net::make_message<core::MsgArqAck>(chan.epoch, chan.cum_next, sack));
  return true;
}

}  // namespace rdp::arq
