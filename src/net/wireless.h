// The wireless channel between mobile hosts and the Mss of their cell.
//
// This module owns the *physical* ground truth of the system model (Fig 1):
// which cell each mobile host is in (or whether it is in transit between
// cells), and whether it is active.  Paper Section 2: an inactive Mh "is
// unable to receive or send any message", and a migrating Mh "may be
// considered inactive by both the old and the new Mss during the period of
// time of the Hand-off".
//
// Downlink transmissions (Mss -> Mh) are single attempts: if the Mh is
// inactive, absent from the cell, or the transmission is lost, the message
// is silently dropped (the Mss "can discard the result message after a
// single attempt", Section 5) and the RDP proxy's retransmission logic is
// what restores reliability.  Uplink transmissions (Mh -> Mss) reach the
// Mss of the cell the Mh occupied at send time.
//
// Each direction has one transmission path, which the sharded kernel runs
// in shard mode too (net/shard_router.h): a send counts the frame, notifies
// kSent and checks reachability against snapshot_mh_cell/_active; then the
// modes differ only in where the loss and latency draws come from and in
// how the arrival is scheduled.  Every arrival runs deliver_injected_uplink
// or deliver_injected_downlink.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/time.h"

#include "common/check.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace rdp::net {

class ShardRouter;

using common::CellId;
using common::MhId;
using common::MssId;

class UplinkReceiver {
 public:
  virtual ~UplinkReceiver() = default;
  virtual void on_uplink(MhId from, const PayloadPtr& payload) = 0;
};

class DownlinkReceiver {
 public:
  virtual ~DownlinkReceiver() = default;
  virtual void on_downlink(CellId cell, const PayloadPtr& payload) = 0;
};

enum class DropReason {
  kLoss = 0,       // radio transmission lost
  kInactive = 1,   // target Mh is inactive
  kNotInCell = 2,  // target Mh is in another cell or in transit
};

// An Mh's radio state: the cell it is in (none while in transit between
// cells) and whether it is active.
struct MhSnapshot {
  std::optional<CellId> cell;
  bool active = false;
};

struct WirelessConfig {
  // One-way latency is uniform in [base_latency, base_latency + jitter].
  common::Duration base_latency = common::Duration::millis(20);
  common::Duration jitter = common::Duration::millis(10);
  double uplink_loss = 0.0;    // probability an uplink frame is lost
  double downlink_loss = 0.0;  // probability a downlink frame is lost
};

// Phase of a wireless frame reported to FrameObservers.  kSent fires once
// per transmission attempt, at send time, whether or not the frame will be
// lost (the radio spends the airtime either way).  kDelivered fires at the
// moment the frame is handed to its receiver; lost or discarded frames
// never reach kDelivered.
enum class FramePhase {
  kSent = 0,
  kDelivered = 1,
};

class WirelessChannel {
 public:
  // Test seam: decides whether a specific frame is dropped (in addition to
  // the random loss).  `uplink` distinguishes direction.
  using DropFilter =
      std::function<bool(MhId mh, const PayloadPtr& payload, bool uplink)>;

  // Tap seam: observes every frame crossing the channel.  `mh` is the
  // mobile-host end of the frame (sender for uplink, target for downlink).
  using FrameObserver = std::function<void(
      MhId mh, const PayloadPtr& payload, bool uplink, FramePhase phase)>;

  WirelessChannel(sim::Simulator& simulator, common::Rng rng,
                  WirelessConfig config);

  // Install (or clear, with nullptr) a deterministic drop filter; used by
  // fault-injection tests to lose exactly one chosen frame.
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  // Observers are invoked in registration order and must outlive the
  // channel's last scheduled delivery.
  void add_frame_observer(FrameObserver observer) {
    RDP_CHECK(observer != nullptr, "frame observer must not be null");
    observers_.push_back(std::move(observer));
  }

  // --- topology / registration -------------------------------------------
  void register_cell(CellId cell, MssId mss, UplinkReceiver* receiver);
  void register_mh(MhId mh, DownlinkReceiver* receiver);

  // Shard mode: make a cell hosted on another shard known to this
  // instance.  Remote cells can be uplink targets and resolve mss_of().
  void register_remote_cell(CellId cell, MssId mss);

  // Switch this instance into sharded operation (see net/shard_router.h):
  // loss/latency come from counter-keyed draws under `draw_seed`, arrivals
  // go through `router`, and send-time reachability reads `mirror` — every
  // Mh's state (indexed by MhId::value()) as of the last window barrier,
  // shared by all shards and written only between windows.
  void enable_shard_mode(ShardRouter* router, std::uint64_t draw_seed,
                         const std::vector<MhSnapshot>& mirror);

  [[nodiscard]] MssId mss_of(CellId cell) const;

  // Lower bound on any frame's one-way latency.  Mobile-host agents tag
  // their timers with this as the reaction bound (sim::Simulator
  // schedule_bounded): an Mh-side cascade can only ever send over this
  // channel, so the sharded kernel may run windows this wide across them.
  [[nodiscard]] common::Duration reaction_bound() const {
    return config_.base_latency;
  }

  // --- physical ground truth (driven by the mobile-host agents) -----------
  void place_mh(MhId mh, CellId cell);  // Mh is now present in `cell`
  void detach_mh(MhId mh);              // Mh is in transit between cells
  void set_mh_active(MhId mh, bool active);

  [[nodiscard]] std::optional<CellId> mh_cell(MhId mh) const;

  // Partition-invariant reads of (possibly remote) Mh state.  In shard mode
  // these come from the mirror, which reflects the ground truth as of the
  // last window barrier — the same bounded staleness a real distributed
  // observer has.  In single-kernel mode they are the live state.  Protocol
  // oracles (e.g. an Mss probing whether an Mh is reachable) must use these
  // rather than mh_cell so results do not depend on the layout.
  [[nodiscard]] bool snapshot_mh_active(MhId mh) const;
  [[nodiscard]] std::optional<CellId> snapshot_mh_cell(MhId mh) const;

  // --- shard-mode state mirroring -----------------------------------------
  // Absolute Mh state after a change, recorded on the Mh's home shard and
  // written into the mirror at the window barrier.
  struct MhStateDelta {
    MhId mh;
    MhSnapshot state;
  };
  // Move out the deltas accumulated since the last barrier (home shard).
  [[nodiscard]] std::vector<MhStateDelta> take_state_deltas();

  // Arrival of a frame (both modes).  In shard mode the router calls these
  // on the shard that owns the receiving end.  A downlink arrival re-checks
  // the Mh's live state: it may have moved or gone inactive in flight.
  void deliver_injected_uplink(MhId from, CellId cell,
                               const PayloadPtr& payload);
  void deliver_injected_downlink(CellId cell, MhId to,
                                 const PayloadPtr& payload);

  // --- transmission --------------------------------------------------------
  // Send from `from` to the Mss of the cell it currently occupies.  The
  // caller (the Mh agent) must only uplink while active and in a cell.
  void uplink(MhId from, PayloadPtr payload,
              sim::EventPriority priority = sim::EventPriority::kNormal);

  // Single-attempt transmission from the Mss of `cell` to `to`.
  void downlink(CellId cell, MhId to, PayloadPtr payload);

  // --- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t uplink_sent() const { return uplink_sent_; }
  [[nodiscard]] std::uint64_t uplink_dropped() const { return uplink_dropped_; }
  [[nodiscard]] std::uint64_t downlink_sent() const { return downlink_sent_; }
  [[nodiscard]] std::uint64_t downlink_dropped() const {
    return downlink_dropped_;
  }
  [[nodiscard]] std::uint64_t drops_for(DropReason reason) const;

  // Bytes offered to the radio, counted at send time from the payload's
  // wire_size() (lost frames included — the airtime is spent regardless).
  [[nodiscard]] std::uint64_t uplink_bytes() const { return uplink_bytes_; }
  [[nodiscard]] std::uint64_t downlink_bytes() const {
    return downlink_bytes_;
  }

 private:
  // Per-entity state lives in dense vectors indexed by the id's integer
  // value (ids are assigned 0..N-1 by the harness): the delivery path does
  // one state lookup per frame, and flat indexing makes it an array access.
  // `known` marks registered cells, since default-constructed slots appear
  // when the vectors grow.
  struct MhState {
    DownlinkReceiver* receiver = nullptr;
    MhSnapshot radio;
  };
  struct CellState {
    MssId mss;
    UplinkReceiver* receiver = nullptr;
    bool known = false;
  };

  // The shared tail of uplink() and downlink(): draw the frame's fate and
  // schedule the arrival of a survivor.
  void transmit(bool uplink, CellId cell, MhId mh, PayloadPtr payload,
                sim::EventPriority priority);
  // Send-time state (live, or the mirror in shard mode) and the reach test
  // both ends of a downlink apply; a frame that fails it is counted dropped.
  const MhSnapshot& snapshot(MhId mh) const;
  bool reaches(const MhSnapshot& mh, CellId cell);
  void count_drop(bool uplink, DropReason reason);
  void notify(MhId mh, const PayloadPtr& payload, bool uplink,
              FramePhase phase) const;
  void record_delta(MhId mh);

  const MhState& mh_state(MhId mh) const;
  MhState& mh_state(MhId mh);
  const CellState& cell_state(CellId cell) const;

  sim::Simulator& simulator_;
  common::Rng rng_;
  WirelessConfig config_;
  ShardRouter* router_ = nullptr;  // non-null iff shard mode
  std::uint64_t draw_seed_ = 0;
  const std::vector<MhSnapshot>* mirror_ = nullptr;  // shard mode
  DropFilter drop_filter_;
  std::vector<FrameObserver> observers_;
  std::vector<CellState> cells_;  // indexed by CellId::value()
  std::vector<MhState> mhs_;      // indexed by MhId::value(); home Mhs only
  // Shard mode: local state changes not yet written into the mirror.
  std::vector<MhStateDelta> pending_deltas_;
  // Per-stream draw counters (uplink/downlink loss + latency).
  common::FlatMap<std::uint64_t> stream_seq_;
  std::uint64_t uplink_sent_ = 0;
  std::uint64_t uplink_dropped_ = 0;
  std::uint64_t downlink_sent_ = 0;
  std::uint64_t downlink_dropped_ = 0;
  std::uint64_t uplink_bytes_ = 0;
  std::uint64_t downlink_bytes_ = 0;
  std::uint64_t drops_by_reason_[3] = {0, 0, 0};
};

}  // namespace rdp::net
