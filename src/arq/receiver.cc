#include "arq/receiver.h"

#include <algorithm>
#include <utility>

#include "net/message.h"
#include "obs/perf_probe.h"

namespace rdp::arq {

bool ArqReceiver::on_uplink(common::MhId from, const net::PayloadPtr& payload,
                            const Deliver& deliver) {
  RDP_PROF_SCOPE(kArq);
  const auto* frame = dynamic_cast<const core::MsgArqData*>(payload.get());
  if (frame == nullptr) return false;

  Channel* chan = channels_.try_emplace(from.value()).first;
  if (chan->seen && frame->epoch < chan->epoch) {
    // A straggler from a previous incarnation of the channel (the Mh has
    // re-registered since).  Not ours to ack.
    counters_.increment("arq.stale_frames");
    return true;
  }
  if (!chan->seen || frame->epoch > chan->epoch) {
    chan->seen = true;
    chan->epoch = frame->epoch;
    chan->cum_next = 0;
    chan->buffered.clear();
  }

  const common::SimTime now = simulator_.now();
  const auto slot = std::lower_bound(
      chan->buffered.begin(), chan->buffered.end(), frame->seq,
      [](const auto& entry, std::uint32_t seq) { return entry.first < seq; });
  if (frame->seq < chan->cum_next ||
      (slot != chan->buffered.end() && slot->first == frame->seq)) {
    counters_.increment("arq.duplicates_dropped");
    observer_.on_event({.kind = core::Hook::kArqDelivered,
                        .at = now,
                        .mh = from,
                        .seq = frame->seq,
                        .epoch = chan->epoch,
                        .flag_a = true});  // duplicate
  } else {
    chan->buffered.emplace(slot, frame->seq, frame->inner);
    // Drain the cumulative prefix into the proxy path.
    while (!chan->buffered.empty() &&
           chan->buffered.front().first == chan->cum_next) {
      net::PayloadPtr inner = std::move(chan->buffered.front().second);
      chan->buffered.erase(chan->buffered.begin());
      counters_.increment("arq.frames_delivered");
      observer_.on_event({.kind = core::Hook::kArqDelivered,
                          .at = now,
                          .mh = from,
                          .seq = chan->cum_next,
                          .epoch = chan->epoch});
      ++chan->cum_next;
      deliver(from, inner);
      // The table may have moved its entries meanwhile; look again.
      chan = channels_.find(from.value());
      if (chan == nullptr) return true;  // forgotten: nothing left to ack
    }
  }

  // Ack every data frame — duplicates included, since a duplicate usually
  // means our previous ack was lost.  Bit i of the SACK map covers seq
  // cum_next + 1 + i (seq == cum_next is the hole being waited on).
  std::uint64_t sack = 0;
  for (const auto& [seq, _] : chan->buffered) {
    const std::uint32_t bit = seq - chan->cum_next - 1;
    if (bit < 64) sack |= 1ull << bit;
  }
  counters_.increment("arq.acks_sent");
  wireless_.downlink(
      cell_, from,
      net::make_message<core::MsgArqAck>(chan->epoch, chan->cum_next, sack));
  return true;
}

}  // namespace rdp::arq
