// Shard-aware routing seam for the network layers.
//
// In a sharded run every node (Mss, server, Mh agent) lives on exactly one
// shard, and each shard owns private WiredNetwork / WirelessChannel
// instances in shard mode.  A network has one transmission path in both
// modes: the send is counted, observed, FIFO-clamped (wired) or checked
// for reachability (wireless) on the sender's instance.  Shard mode
// changes two things only.  The draws come from the keyed hash below.
// The arrival is never scheduled directly: the instance hands it to a
// ShardRouter, which buffers it for injection into the destination shard
// at the next window barrier (sim::ShardedSimulator::post), where it runs
// the same deliver_injected* handler a single-kernel arrival runs.  This
// holds for intra-shard sends too, so the delivery order that tie-breaks
// on the canonical (time, priority, stream, seq) key is the same no matter
// how the nodes are partitioned.
//
// The same partition-invariance requirement applies to randomness: a shared
// per-network RNG would be consumed in whatever order the partitioning
// interleaves sends.  Sharded instances therefore draw loss and latency
// from a counter-keyed hash — shard_draw(seed, stream, n) — so the fate of
// the n-th message of a logical stream depends only on the seed and the
// stream, never on the shard layout.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/time.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace rdp::net {

// A wireless arrival in flight between shards.  `mh` is the mobile-host end
// (sender for uplink, target for downlink); `cell` the cell whose Mss is
// the other end.
struct WirelessFrame {
  bool uplink = false;
  common::CellId cell;
  common::MhId mh;
  PayloadPtr payload;
  sim::EventPriority priority = sim::EventPriority::kNormal;
  common::SimTime arrives_at;
};

class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  // Deliver `envelope` (arrives_at already fixed) to the shard owning
  // envelope.dst at the next barrier.
  virtual void route_wired(Envelope envelope, sim::EventPriority priority,
                           std::uint64_t stream_key,
                           std::uint64_t stream_seq) = 0;

  // Deliver a wireless frame to the shard owning its receiving end (the
  // cell's Mss for uplink, the Mh's home shard for downlink).
  virtual void route_wireless(WirelessFrame frame, std::uint64_t stream_key,
                              std::uint64_t stream_seq) = 0;
};

// --- stream keys -----------------------------------------------------------
// 64-bit ids for logical message streams: a 4-bit direction tag over two
// 30-bit entity values.  Entity ids in this stack are dense small integers,
// far below 2^30.

inline constexpr std::uint64_t kWiredStreamTag = 0;
inline constexpr std::uint64_t kUplinkStreamTag = 1;
inline constexpr std::uint64_t kDownlinkStreamTag = 2;

inline constexpr std::uint64_t shard_stream_key(std::uint64_t tag,
                                                std::uint32_t a,
                                                std::uint32_t b) {
  return (tag << 60) | (static_cast<std::uint64_t>(a) << 30) |
         static_cast<std::uint64_t>(b);
}

inline std::uint64_t wired_stream_key(NodeAddress src, NodeAddress dst) {
  return shard_stream_key(kWiredStreamTag, src.value(), dst.value());
}
inline std::uint64_t uplink_stream_key(common::MhId mh, common::CellId cell) {
  return shard_stream_key(kUplinkStreamTag, mh.value(), cell.value());
}
inline std::uint64_t downlink_stream_key(common::CellId cell,
                                         common::MhId mh) {
  return shard_stream_key(kDownlinkStreamTag, cell.value(), mh.value());
}

// --- keyed draws -----------------------------------------------------------

// splitmix64 finalizer: a full-avalanche 64-bit mix.
inline constexpr std::uint64_t shard_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The `counter`-th draw of stream `key` under `seed`; uniform over 2^64.
inline constexpr std::uint64_t shard_draw(std::uint64_t seed,
                                          std::uint64_t key,
                                          std::uint64_t counter) {
  return shard_mix(seed ^ shard_mix(key ^ shard_mix(counter)));
}

// Same draw mapped to [0, 1).
inline constexpr double shard_draw_unit(std::uint64_t seed, std::uint64_t key,
                                        std::uint64_t counter) {
  return static_cast<double>(shard_draw(seed, key, counter) >> 11) *
         0x1.0p-53;
}

// Same draw mapped to [0, hi] (hi >= 0).
inline constexpr std::int64_t shard_draw_int(std::uint64_t seed,
                                             std::uint64_t key,
                                             std::uint64_t counter,
                                             std::int64_t hi) {
  return static_cast<std::int64_t>(shard_draw(seed, key, counter) %
                                   static_cast<std::uint64_t>(hi + 1));
}

}  // namespace rdp::net
