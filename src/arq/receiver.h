// Mss-side uplink ARQ endpoint (PROTOCOL.md §11.5).
//
// One receiver per Mss handles every Mh in its cell: MsgArqData frames are
// reassembled into cumulative order, duplicates are absorbed, in-order
// inner messages are handed to the proxy path via the caller's dispatch
// callback, and every data frame is answered with a cumulative+selective
// MsgArqAck on the downlink.  State is per-(Mh, epoch) and volatile: an Mss
// crash simply loses it, and the sender's next epoch starts both ends
// fresh.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "core/events.h"
#include "core/messages.h"
#include "net/wireless.h"
#include "sim/simulator.h"
#include "stats/counters.h"

namespace rdp::arq {

class ArqReceiver {
 public:
  // Hands one reassembled inner message to the Mss's uplink dispatch.
  using Deliver =
      std::function<void(common::MhId, const net::PayloadPtr&)>;

  ArqReceiver(sim::Simulator& simulator, net::WirelessChannel& wireless,
              core::RdpObserver& observer, stats::CounterRegistry& counters,
              common::CellId cell)
      : simulator_(simulator),
        wireless_(wireless),
        observer_(observer),
        counters_(counters),
        cell_(cell) {}

  ArqReceiver(const ArqReceiver&) = delete;
  ArqReceiver& operator=(const ArqReceiver&) = delete;

  // Returns true iff `payload` was an ARQ frame (and was fully handled —
  // including the ack); false passes the message back to plain dispatch.
  bool on_uplink(common::MhId from, const net::PayloadPtr& payload,
                 const Deliver& deliver);

  // Drop one Mh's channel state.  Callers must be sure no retransmission of
  // the current epoch can still be in flight — erasing the dedupe window
  // re-delivers such frames as fresh.  (The Mss keeps state across a plain
  // leave for exactly that reason and only clear()s on crash.)
  void forget(common::MhId mh) { channels_.erase(mh.value()); }

  // Crash: the receiver state is volatile by design.
  void clear() { channels_.clear(); }

  [[nodiscard]] std::size_t channels() const { return channels_.size(); }

 private:
  struct Channel {
    bool seen = false;
    std::uint32_t epoch = 0;
    std::uint32_t cum_next = 0;
    // Out-of-order frames waiting for the cumulative hole to fill, sorted
    // by seq (each > cum_next); keeps its storage across epochs.
    std::vector<std::pair<std::uint32_t, net::PayloadPtr>> buffered;
  };

  sim::Simulator& simulator_;
  net::WirelessChannel& wireless_;
  core::RdpObserver& observer_;
  stats::CounterRegistry& counters_;
  common::CellId cell_;
  common::FlatMap<Channel> channels_;  // by MhId::value()
};

}  // namespace rdp::arq
