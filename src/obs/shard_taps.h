// Shard-safe observability: per-shard event buffers merged at barriers.
//
// The global consumers of protocol events — the telemetry auditor, the
// metrics collector, the cost ledger — are all stateful and ordering-
// sensitive, so they cannot be fed concurrently from several worker
// threads, and they cannot be sharded (a request's lifecycle crosses
// shards).  Instead each shard buffers everything it would have reported —
// protocol events, wired send records, wireless frame records — into a
// thread-private ShardObserverBuffer, and at every window barrier the
// ShardTapMerger drains all buffers, sorts each record class by a canonical
// partition-invariant key, and replays the merged stream single-threaded
// into the real consumers.
//
// The sort keys never use the shard index as anything but a last-resort
// tie-break, and the records that could collide up to that point are ones
// whose relative order no consumer can distinguish:
//   * events: (time, entity tag, kind rank, secondary tag, shard, idx) —
//     a single entity's events all originate on one shard (its home), so
//     same-entity streams are ordered by program order (idx);
//   * wired:  (send time, link key, idx) — a link's sends all originate on
//     the source node's shard;
//   * frames: (time, mh, direction, phase, shard, idx) — records that tie
//     through `phase` are indistinguishable to the ledger (its wireless
//     accounting is stateless across frames of different streams and
//     additive within a purpose class).
// Replay order within a barrier is wired, then frames, then events; metric
// samples taken during event replay therefore see byte counters that may
// run ahead by at most one window.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/events.h"
#include "net/message.h"
#include "net/wireless.h"

namespace rdp::obs {

// One shard's buffered observations between two barriers.
class ShardObserverBuffer final : public core::RdpObserver {
 public:
  struct BufferedEvent {
    core::Event event;
    std::uint64_t idx;  // program order within this buffer
  };
  struct BufferedWiredSend {
    net::Envelope envelope;
    std::uint64_t link_key;
    std::uint64_t idx;
  };
  struct BufferedFrame {
    common::SimTime at;
    common::MhId mh;
    bool uplink;
    net::FramePhase phase;
    net::PayloadPtr payload;
    std::uint64_t idx;
  };

  // Mss-keyed hooks share the Mh tag space via this offset (entity ids are
  // 32-bit, so the spaces cannot collide).
  static constexpr std::uint64_t kMssTagBase = 1ull << 40;

  // Everything the buffer records; the three membership-churn kinds
  // (mss_departed / mss_rejoined / primary_demoted) are not buffered —
  // sharded worlds do not run the ring-repair subsystem.
  static constexpr std::uint32_t kMask =
      kAllHooks & ~(core::hook_bit(core::Hook::kMssDeparted) |
                    core::hook_bit(core::Hook::kMssRejoined) |
                    core::hook_bit(core::Hook::kPrimaryDemoted));

  explicit ShardObserverBuffer(const sim::Simulator& simulator)
      : simulator_(simulator) {}

  // --- raw network taps (wired send observer / frame observer) ------------
  void on_wired_send(const net::Envelope& envelope);
  void on_wireless_frame(common::MhId mh, const net::PayloadPtr& payload,
                         bool uplink, net::FramePhase phase);

  // --- RdpObserver ---------------------------------------------------------
  [[nodiscard]] std::uint32_t hook_mask() const override { return kMask; }
  void on_event(const core::Event& event) override {
    if ((kMask & core::hook_bit(event.kind)) == 0) return;
    events_.push_back(BufferedEvent{event, next_idx_++});
  }

 private:
  friend class ShardTapMerger;

  const sim::Simulator& simulator_;
  std::vector<BufferedEvent> events_;
  std::vector<BufferedWiredSend> wired_;
  std::vector<BufferedFrame> frames_;
  std::uint64_t next_idx_ = 0;
};

// Merges all shards' buffers at a barrier and replays them into the global
// single-threaded consumers.
class ShardTapMerger {
 public:
  using WiredSink = std::function<void(const net::Envelope&)>;
  // Replayed with the frame's original emission time (BufferedFrame.at) so
  // time-aware consumers (the wire analyzer) see the same timestamps as a
  // live tap; time-blind consumers just ignore the first argument.
  using FrameSink =
      std::function<void(common::SimTime, common::MhId, const net::PayloadPtr&,
                         bool, net::FramePhase)>;

  // Buffer order defines the shard index used as the final tie-break; add
  // them in shard order.  All pointers must outlive the merger.
  void add_buffer(ShardObserverBuffer* buffer);
  void set_hook_sink(core::RdpObserver* sink) { hook_sink_ = sink; }
  void add_wired_sink(WiredSink sink);
  void add_frame_sink(FrameSink sink);

  // Drain every buffer, merge, replay.  Called at each window barrier.
  void flush();

 private:
  // The merge sorts these compact keys (copies of the sort fields plus the
  // record's position in its buffer) instead of moving the records
  // themselves — a BufferedEvent is ~100 bytes that the sort would
  // otherwise shuffle repeatedly.  The key vectors are retained across
  // flushes, so steady-state flushes allocate nothing.
  struct HookKey {
    common::SimTime at;
    std::uint64_t tag;
    std::uint64_t tag2;
    std::uint64_t idx;
    std::int32_t rank;
    std::int32_t shard;
    std::uint32_t pos;
  };
  struct WiredKey {
    common::SimTime sent_at;
    std::uint64_t link_key;
    std::uint64_t idx;
    std::int32_t shard;
    std::uint32_t pos;
  };
  struct FrameKey {
    common::SimTime at;
    std::uint64_t idx;
    common::MhId mh;
    std::int32_t shard;
    std::uint32_t pos;
    bool uplink;
    net::FramePhase phase;
  };

  std::vector<ShardObserverBuffer*> buffers_;
  core::RdpObserver* hook_sink_ = nullptr;
  std::vector<WiredSink> wired_sinks_;
  std::vector<FrameSink> frame_sinks_;
  std::vector<HookKey> hook_keys_;
  std::vector<WiredKey> wired_keys_;
  std::vector<FrameKey> frame_keys_;
};

}  // namespace rdp::obs
