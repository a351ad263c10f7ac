#include "obs/shard_taps.h"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>

#include "net/shard_router.h"
#include "obs/perf_probe.h"
#include "sim/simulator.h"

namespace rdp::obs {

namespace {

using core::Hook;

// Tie-break ranks for events sharing one (time, tag), in rank order.  The
// ranks are chosen to match causal emission order for every pair a single
// handler can emit at the same instant: a proxy is created before requests
// reach it, results arrive before they are forwarded, and acks,
// completions and losses are recorded before the deletion they trigger (an
// Mss tearing down a co-located proxy emits all of these at one
// timestamp).  Events from different nodes at the same instant are
// concurrent — anything causally related is separated by at least one
// wire latency — so for those any fixed rank works.
//
// The entire teardown chain ranks BEFORE the creation chain: one ARQ batch
// drain can process a final ack (ack -> completed -> proxy deleted) and the
// Mh's next request (proxy created -> reached) back-to-back at a single
// instant, and replaying the new incarnation's events before the old one's
// deletion would bind the fresh request to the dead proxy (a spurious R4).
constexpr Hook kRankOrder[] = {
    Hook::kMhRegistered,
    // ARQ delivery precedes everything it can trigger at the same instant
    // (request dispatch, proxy creation); the frame-send event ranks last
    // of all, because a delivery/ack at time t can enqueue and send the
    // next frame at t (result delivered -> uplinkAck enqueued -> frame
    // sent).
    Hook::kArqDelivered,
    Hook::kResultAtProxy,
    Hook::kResultForwarded,
    Hook::kResultDelivered,
    Hook::kAckForwarded,
    Hook::kRequestCompleted,
    Hook::kStaleAckDropped,
    Hook::kDelproxyWithPending,
    Hook::kReissueExhausted,  // emitted immediately before its request_lost
    Hook::kRequestLost,
    Hook::kOrphanedProxy,
    Hook::kProxyDeleted,
    Hook::kProxyCreated,
    Hook::kProxyRestored,
    Hook::kBackupPromoted,
    Hook::kRequestIssued,
    Hook::kRequestReissued,
    Hook::kRequestReachedProxy,
    Hook::kHandoffStarted,
    Hook::kHandoffCompleted,
    Hook::kUpdateCurrentloc,
    Hook::kMssCrashed,
    Hook::kMssRestarted,
    Hook::kArqFrameSent,  // see kArqDelivered
};

static_assert(std::size(kRankOrder) ==
                  static_cast<std::size_t>(
                      std::popcount(ShardObserverBuffer::kMask)),
              "every buffered kind needs exactly one rank");

// Rank of each kind, indexed by Hook (the unbuffered membership kinds keep
// rank 0; they never reach the merger).
constexpr auto kRank = [] {
  std::array<std::int32_t, core::RdpObserver::kHookCount> rank{};
  for (std::size_t i = 0; i < std::size(kRankOrder); ++i) {
    rank[static_cast<std::size_t>(kRankOrder[i])] =
        static_cast<std::int32_t>(i);
  }
  return rank;
}();

struct SortKey {
  std::uint64_t tag;   // primary entity (mh, or kMssTagBase | mss)
  std::int32_t rank;   // see kRankOrder
  std::uint64_t tag2;  // secondary entity / sequence discriminator
};

// The canonical sort key of one event (see the header comment).
SortKey sort_key(const core::Event& e) {
  const std::int32_t rank = kRank[static_cast<std::size_t>(e.kind)];
  const std::uint64_t mh = e.mh.value();
  switch (e.kind) {
    case Hook::kMssCrashed:
    case Hook::kMssRestarted:
    case Hook::kBackupPromoted:  // keyed by the primary; the backup is id_b
      return {ShardObserverBuffer::kMssTagBase | e.id_a, rank, e.id_b};
    case Hook::kArqFrameSent:
    case Hook::kArqDelivered:
      return {mh, rank, (e.epoch << 32) | e.seq};
    case Hook::kHandoffStarted:
    case Hook::kHandoffCompleted:
      return {mh, rank, e.id_b};  // the new Mss
    case Hook::kProxyCreated:
    case Hook::kProxyDeleted:
    case Hook::kProxyRestored:
    case Hook::kResultForwarded:
    case Hook::kUpdateCurrentloc:
    case Hook::kMhRegistered:
    case Hook::kDelproxyWithPending:
    case Hook::kOrphanedProxy:
      return {mh, rank, e.id_a};  // host, target Mss or proxy
    default:
      return {mh, rank, e.request.seq()};
  }
}

}  // namespace

void ShardObserverBuffer::on_wired_send(const net::Envelope& envelope) {
  wired_.push_back(BufferedWiredSend{
      envelope, net::wired_stream_key(envelope.src, envelope.dst),
      next_idx_++});
}

void ShardObserverBuffer::on_wireless_frame(common::MhId mh,
                                            const net::PayloadPtr& payload,
                                            bool uplink,
                                            net::FramePhase phase) {
  frames_.push_back(BufferedFrame{simulator_.now(), mh, uplink, phase, payload,
                                  next_idx_++});
}

// --- merger ----------------------------------------------------------------

void ShardTapMerger::add_buffer(ShardObserverBuffer* buffer) {
  RDP_CHECK(buffer != nullptr, "null shard buffer");
  buffers_.push_back(buffer);
}

void ShardTapMerger::flush() {
  // Barrier-time replay into the global consumers; the replayed events go
  // through ObserverList, so their cost splits into the per-hook domains
  // below this one.  The probe itself contributes no invocation — the
  // count added below is one per replayed record, so the domain's count
  // reads as fan-outs performed, not barriers crossed.
  RDP_PROF_SCOPE_NOCOUNT(kHookFanout);
  // The sorts move only the compact keys; records stay in their buffers
  // and are replayed through their (shard, pos) coordinates.
  // Wired sends first, then frames, then events (see header).
  wired_keys_.clear();
  for (int s = 0; s < static_cast<int>(buffers_.size()); ++s) {
    const auto& records = buffers_[s]->wired_;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
      wired_keys_.push_back(WiredKey{records[i].envelope.sent_at,
                                     records[i].link_key, records[i].idx, s,
                                     i});
    }
  }
  std::sort(wired_keys_.begin(), wired_keys_.end(),
            [](const WiredKey& a, const WiredKey& b) {
              if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
              if (a.link_key != b.link_key) return a.link_key < b.link_key;
              return a.idx < b.idx;
            });
  if (wired_sink_) {
    for (const auto& key : wired_keys_) {
      wired_sink_(buffers_[key.shard]->wired_[key.pos].envelope);
    }
  }
  for (auto* buffer : buffers_) buffer->wired_.clear();

  frame_keys_.clear();
  for (int s = 0; s < static_cast<int>(buffers_.size()); ++s) {
    const auto& records = buffers_[s]->frames_;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
      frame_keys_.push_back(FrameKey{records[i].at, records[i].idx,
                                     records[i].mh, s, i, records[i].uplink,
                                     records[i].phase});
    }
  }
  std::sort(frame_keys_.begin(), frame_keys_.end(),
            [](const FrameKey& a, const FrameKey& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.mh != b.mh) return a.mh < b.mh;
              if (a.uplink != b.uplink) return b.uplink;  // downlink first
              if (a.phase != b.phase) return a.phase < b.phase;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.idx < b.idx;
            });
  if (frame_sink_) {
    for (const auto& key : frame_keys_) {
      const auto& record = buffers_[key.shard]->frames_[key.pos];
      frame_sink_(record.at, record.mh, record.payload, record.uplink,
                  record.phase);
    }
  }
  for (auto* buffer : buffers_) buffer->frames_.clear();

  hook_keys_.clear();
  for (int s = 0; s < static_cast<int>(buffers_.size()); ++s) {
    const auto& records = buffers_[s]->events_;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
      const SortKey key = sort_key(records[i].event);
      hook_keys_.push_back(HookKey{records[i].event.at, key.tag, key.tag2,
                                   records[i].idx, key.rank, s, i});
    }
  }
  std::sort(hook_keys_.begin(), hook_keys_.end(),
            [](const HookKey& a, const HookKey& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.tag != b.tag) return a.tag < b.tag;
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.tag2 != b.tag2) return a.tag2 < b.tag2;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.idx < b.idx;
            });
  if (hook_sink_ != nullptr) {
    for (const auto& key : hook_keys_) {
      hook_sink_->on_event(buffers_[key.shard]->events_[key.pos].event);
    }
  }
  for (auto* buffer : buffers_) buffer->events_.clear();

  RDP_PROF_ADD_COUNT(wired_keys_.size() + frame_keys_.size() +
                     hook_keys_.size());
}

}  // namespace rdp::obs
