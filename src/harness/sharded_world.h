// Sharded scenario builder: the RDP world over a cell-partitioned kernel.
//
// A ShardedWorld owns a sim::ShardedSimulator and, per shard, a private
// network stack (WiredNetwork and WirelessChannel in shard mode, plus an
// optional CausalLayer), counter registry and observer buffer.  It also
// owns the one wireless mirror: every Mh's (cell, active) state as of the
// last window barrier, read by every shard's channel for send-time
// reachability and written only at barriers.  Entities are pinned to shards:
// cells (and their Mss) by contiguous block (CellTopology::cell_shard),
// servers round-robin, and each Mh to the shard of its *home* cell — the
// agent's event-queue home for its whole lifetime, even as it roams.
//
// All inter-node traffic is routed through the sharded kernel's mailboxes
// (net/shard_router.h), and the per-shard observer buffers are merged and
// replayed at every window barrier (obs/shard_taps.h): protocol events into
// the global observer list (telemetry, the experiment metrics), wired sends
// and radio frames into the world's harness::Instruments — the same
// instrument set World feeds live.  The result is bit-identical to itself
// under any shard or thread count.
//
// Single-kernel-only features are excluded: fault injection, proxy
// checkpointing and replication all assume one event queue (their crash
// plans reach across the world synchronously) and are rejected here.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/wire_tap.h"
#include "causal/causal_layer.h"
#include "core/directory.h"
#include "core/mobile_host.h"
#include "core/mss.h"
#include "core/runtime.h"
#include "core/server.h"
#include "harness/instruments.h"
#include "harness/world.h"
#include "net/shard_router.h"
#include "net/wired.h"
#include "net/wireless.h"
#include "obs/cost_ledger.h"
#include "obs/shard_taps.h"
#include "obs/telemetry.h"
#include "sim/sharded_simulator.h"
#include "stats/counters.h"

namespace rdp::harness {

struct ShardedScenarioConfig {
  // The scenario itself; replication, checkpointing and fault hooks must be
  // off (single-kernel features).
  ScenarioConfig base;
  int shards = 2;
  // Worker threads for window execution (0 = hardware concurrency,
  // 1 = inline).  Never affects results.
  int threads = 1;
  // Home cell per Mh (index = Mh id); determines the Mh's shard.  When
  // empty, Mh i starts in cell i % num_mss.
  std::vector<common::CellId> mh_home_cells;

  // Membership churn (PROTOCOL.md §8, sharded flavor): crash/restart an Mss
  // at a virtual time, mark it departed once it stays down past
  // base.replication.departure_threshold, and repair the backup-chain
  // bookkeeping in the directory.  Everything is applied at window
  // barriers — single-threaded, a pure function of barrier-visible state —
  // so results stay bit-identical for any shard count.  Replication itself
  // (the wire-level Replicator/MembershipService pair) stays structurally
  // off; churn exercises the ring-repair decision function and the
  // membership observer hooks under partitioned execution.
  struct ChurnEvent {
    common::Duration at;
    int mss = 0;
    bool up = false;  // false = crash, true = restart
  };
  std::vector<ChurnEvent> membership_churn;
  // Chain length for the ring bookkeeping the churn maintains.
  int backup_k = 1;
};

class ShardedWorld {
 public:
  explicit ShardedWorld(ShardedScenarioConfig config);
  ~ShardedWorld();

  ShardedWorld(const ShardedWorld&) = delete;
  ShardedWorld& operator=(const ShardedWorld&) = delete;

  [[nodiscard]] const ShardedScenarioConfig& config() const { return config_; }

  [[nodiscard]] sim::ShardedSimulator& kernel() { return sim_; }
  [[nodiscard]] int shards() const { return sim_.shards(); }
  [[nodiscard]] sim::Simulator& shard_simulator(int s) { return sim_.shard(s); }

  // Shard pinning (all partition-invariant functions of the config).
  [[nodiscard]] int shard_of_cell(common::CellId cell) const;
  [[nodiscard]] int home_shard(int mh_index) const {
    return mh_home_shard_.at(static_cast<std::size_t>(mh_index));
  }
  [[nodiscard]] common::CellId home_cell(int mh_index) const {
    return config_.mh_home_cells.at(static_cast<std::size_t>(mh_index));
  }

  [[nodiscard]] core::Directory& directory() { return directory_; }
  [[nodiscard]] common::Rng& rng() { return rng_; }
  // The globally merged observer stream (barrier-replayed).  Observers
  // added here see every shard's events in canonical order.
  [[nodiscard]] core::ObserverList& observers() { return observers_; }
  [[nodiscard]] obs::Telemetry& telemetry() {
    return instruments_.telemetry();
  }
  // Null unless base.cost.enabled.
  [[nodiscard]] obs::CostLedger* cost_ledger() {
    return instruments_.cost_ledger();
  }
  // Null unless the scenario enabled the passive wire analyzer; fed by
  // barrier-merged replay, so its output is identical for any shard count.
  [[nodiscard]] analyzer::Analyzer* wire_analyzer() {
    return instruments_.wire_analyzer();
  }
  [[nodiscard]] analyzer::WireTap* analyzer_tap() {
    return instruments_.analyzer_tap();
  }

  [[nodiscard]] int num_mss() const { return static_cast<int>(msses_.size()); }
  [[nodiscard]] core::Mss& mss(int i) { return *msses_.at(i); }
  [[nodiscard]] core::MobileHostAgent& mh(int i) { return *mhs_.at(i); }
  [[nodiscard]] core::Server& server(int i) { return *servers_.at(i); }
  [[nodiscard]] common::CellId cell(int i) const {
    return common::CellId(static_cast<std::uint32_t>(i));
  }
  [[nodiscard]] common::NodeAddress server_address(int i) {
    return servers_.at(i)->address();
  }

  [[nodiscard]] net::WiredNetwork& wired(int s) { return shards_.at(s)->wired; }
  [[nodiscard]] net::WirelessChannel& wireless(int s) {
    return shards_.at(s)->wireless;
  }

  // Cross-shard sums of the per-shard tallies.
  [[nodiscard]] stats::CounterRegistry merged_counters() const;
  [[nodiscard]] std::uint64_t wired_messages_total() const;
  [[nodiscard]] std::uint64_t wired_bytes_total() const;
  [[nodiscard]] std::uint64_t causal_delayed_total() const;

  // Both entry points sync the wireless mirror first: state mutated since
  // the last barrier (e.g. hosts powered on before the first run) must be
  // visible before any shard sends against the mirror.
  void run_for(common::Duration duration) {
    sync_mirrors();
    sim_.run_until(sim_.now() + duration);
  }
  void run_to_quiescence() {
    sync_mirrors();
    sim_.run();
  }

 private:
  class Router;

  // One shard's private stack.  The runtime hands the shard's buffer
  // directly to the entities as their observer; nothing global is touched
  // during a window.
  struct Shard {
    Shard(sim::Simulator& simulator, const ScenarioConfig& scenario,
          const std::vector<common::NodeAddress>& universe);

    net::WiredNetwork wired;
    std::unique_ptr<causal::CausalLayer> causal;
    net::WiredTransport& transport;
    net::WirelessChannel wireless;
    stats::CounterRegistry counters;
    obs::ShardObserverBuffer buffer;
    std::unique_ptr<core::Runtime> runtime;
  };

  void route_wired(int src, net::Envelope envelope,
                   sim::EventPriority priority, std::uint64_t stream_key,
                   std::uint64_t stream_seq);
  void route_wireless(int src, net::WirelessFrame frame,
                      std::uint64_t stream_key, std::uint64_t stream_seq);
  void sync_mirrors();
  // Barrier-time membership churn: apply due crash/restart events, settle
  // due departures, repair the chain bookkeeping.  Single-threaded.
  void apply_churn(common::SimTime now);
  void recompute_chains();

  ShardedScenarioConfig config_;
  sim::ShardedSimulator sim_;
  common::Rng rng_;
  core::Directory directory_;

  // Every Mh's radio state as of the last window barrier, indexed by Mh id.
  // Every shard's channel reads it during windows; sync_mirrors() alone
  // writes it, between windows.
  std::vector<net::MhSnapshot> mirror_;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int> addr_shard_;      // wired address -> owning shard
  std::vector<int> cell_shard_;      // cell id -> owning shard
  std::vector<int> mh_home_shard_;   // mh id -> home shard

  core::ObserverList observers_;  // global consumers (merged stream)
  Instruments instruments_;
  obs::ShardTapMerger merger_;

  std::vector<std::unique_ptr<core::Mss>> msses_;
  std::vector<std::unique_ptr<core::Server>> servers_;
  std::vector<std::unique_ptr<core::MobileHostAgent>> mhs_;

  // Membership churn state (barrier-owned; see apply_churn).
  std::vector<ShardedScenarioConfig::ChurnEvent> churn_;  // time-sorted
  std::size_t next_churn_ = 0;
  std::map<common::MssId, common::SimTime> pending_departures_;

  friend class Router;
};

}  // namespace rdp::harness
