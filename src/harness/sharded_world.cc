#include "harness/sharded_world.h"

#include <algorithm>
#include <utility>

#include "workload/topology.h"

namespace rdp::harness {

namespace {

// Distinct draw seeds per network so wired and wireless streams never share
// a hash sequence even if their stream keys collide.
constexpr std::uint64_t kWiredDrawSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kWirelessDrawSalt = 0x51c64e6d2c9a7f3bull;

sim::ShardedSimulator::Options kernel_options(
    const ShardedScenarioConfig& config) {
  sim::ShardedSimulator::Options options;
  options.shards = config.shards;
  options.threads = config.threads;
  // The lookahead is the minimum cross-shard latency: every inter-node
  // message rides either the wired network or the wireless channel, and
  // both charge at least their base latency.
  options.lookahead = std::min(config.base.wired.base_latency,
                               config.base.wireless.base_latency);
  return options;
}

}  // namespace

// Per-shard face of the mailbox: stamps the source shard onto every routed
// delivery.
class ShardedWorld::Router final : public net::ShardRouter {
 public:
  Router(ShardedWorld* world, int src) : world_(world), src_(src) {}

  void route_wired(net::Envelope envelope, sim::EventPriority priority,
                   std::uint64_t stream_key,
                   std::uint64_t stream_seq) override {
    world_->route_wired(src_, std::move(envelope), priority, stream_key,
                        stream_seq);
  }

  void route_wireless(net::WirelessFrame frame, std::uint64_t stream_key,
                      std::uint64_t stream_seq) override {
    world_->route_wireless(src_, std::move(frame), stream_key, stream_seq);
  }

 private:
  ShardedWorld* world_;
  int src_;
};

ShardedWorld::Shard::Shard(sim::Simulator& simulator,
                           const ScenarioConfig& scenario,
                           const std::vector<common::NodeAddress>& universe)
    : wired(simulator, common::Rng(scenario.seed ^ 0x9e3779b9ULL),
            scenario.wired),
      causal(scenario.causal_order
                 ? std::make_unique<causal::CausalLayer>(wired, universe)
                 : nullptr),
      transport(causal ? static_cast<net::WiredTransport&>(*causal)
                       : static_cast<net::WiredTransport&>(wired)),
      wireless(simulator, common::Rng(scenario.seed ^ 0x51c64e6dULL),
               scenario.wireless),
      buffer(simulator) {}

ShardedWorld::ShardedWorld(ShardedScenarioConfig config)
    : config_(std::move(config)),
      sim_(kernel_options(config_)),
      rng_(config_.base.seed),
      instruments_(config_.base, directory_, observers_, "sharded world") {
  const ScenarioConfig& base = config_.base;
  RDP_CHECK(!base.proxy_checkpointing,
            "proxy checkpointing is a single-kernel feature");
  RDP_CHECK(base.replication.mode == replication::Mode::kOff,
            "replication is a single-kernel feature");

  if (config_.mh_home_cells.empty()) {
    for (int i = 0; i < base.num_mh; ++i) {
      config_.mh_home_cells.push_back(cell(i % base.num_mss));
    }
  }
  RDP_CHECK(static_cast<int>(config_.mh_home_cells.size()) == base.num_mh,
            "need one home cell per Mh");

  // Addresses are allocated in a fixed order (Mss 0..N-1, then servers), so
  // the causal universe is known before any shard stack exists.
  std::vector<common::NodeAddress> universe;
  universe.reserve(
      static_cast<std::size_t>(base.num_mss + base.num_servers));
  for (int i = 0; i < base.num_mss + base.num_servers; ++i) {
    universe.emplace_back(static_cast<std::uint32_t>(i));
  }

  mirror_.resize(static_cast<std::size_t>(base.num_mh));
  for (int s = 0; s < config_.shards; ++s) {
    routers_.push_back(std::make_unique<Router>(this, s));
    shards_.push_back(
        std::make_unique<Shard>(sim_.shard(s), base, universe));
    Shard& shard = *shards_.back();
    shard.wired.enable_shard_mode(routers_.back().get(),
                                  base.seed ^ kWiredDrawSalt);
    shard.wireless.enable_shard_mode(routers_.back().get(),
                                     base.seed ^ kWirelessDrawSalt, mirror_);
    shard.wired.add_send_observer([buffer = &shard.buffer](
                                      const net::Envelope& envelope) {
      buffer->on_wired_send(envelope);
    });
    shard.wireless.add_frame_observer(
        [buffer = &shard.buffer](common::MhId mh,
                                 const net::PayloadPtr& payload, bool uplink,
                                 net::FramePhase phase) {
          buffer->on_wireless_frame(mh, payload, uplink, phase);
        });
    shard.runtime = std::make_unique<core::Runtime>(core::Runtime{
        sim_.shard(s), shard.transport, shard.wireless, directory_, base.rdp,
        shard.buffer, shard.counters});
    merger_.add_buffer(&shard.buffer);
  }

  // Global consumers, fed by barrier-merged replay.
  merger_.set_hook_sink(&observers_);
  merger_.set_wired_sink([this](const net::Envelope& envelope) {
    instruments_.on_wired_send(envelope);
  });
  merger_.set_frame_sink([this](common::SimTime at, common::MhId mh,
                                const net::PayloadPtr& payload, bool uplink,
                                net::FramePhase phase) {
    instruments_.on_wireless_frame(at, mh, payload, uplink, phase);
  });

  // Entity pinning.  Cells/Mss by contiguous block; the cell ids double as
  // Mss indices, exactly as in World.
  for (int i = 0; i < base.num_mss; ++i) {
    cell_shard_.push_back(workload::CellTopology::cell_shard(
        cell(i), static_cast<std::size_t>(base.num_mss), config_.shards));
  }

  for (int i = 0; i < base.num_mss; ++i) {
    const common::MssId id(static_cast<std::uint32_t>(i));
    const common::CellId cell_id = cell(i);
    const int s = cell_shard_[static_cast<std::size_t>(i)];
    const common::NodeAddress address = directory_.allocate_address();
    RDP_CHECK(address == universe[static_cast<std::size_t>(i)],
              "address allocation out of order");
    directory_.register_mss(id, cell_id, address);
    addr_shard_.push_back(s);
    auto mss =
        std::make_unique<core::Mss>(*shards_[s]->runtime, id, cell_id, address);
    shards_[s]->transport.attach(address, mss.get());
    for (int t = 0; t < config_.shards; ++t) {
      if (t == s) {
        shards_[t]->wireless.register_cell(cell_id, id, mss.get());
      } else {
        shards_[t]->wireless.register_remote_cell(cell_id, id);
      }
    }
    msses_.push_back(std::move(mss));
  }

  for (int i = 0; i < base.num_servers; ++i) {
    const common::ServerId id(static_cast<std::uint32_t>(i));
    const int s = i % config_.shards;
    const common::NodeAddress address = directory_.allocate_address();
    directory_.register_server(id, address);
    addr_shard_.push_back(s);
    auto server = std::make_unique<core::Server>(
        *shards_[s]->runtime, id, address, base.server, rng_.fork());
    shards_[s]->transport.attach(address, server.get());
    servers_.push_back(std::move(server));
  }

  for (int i = 0; i < base.num_mh; ++i) {
    const common::MhId id(static_cast<std::uint32_t>(i));
    const int s = shard_of_cell(config_.mh_home_cells[i]);
    mh_home_shard_.push_back(s);
    // The agent's constructor registers it with its home shard's channel;
    // every shard reads its state from the one mirror.
    mhs_.push_back(
        std::make_unique<core::MobileHostAgent>(*shards_[s]->runtime, id));
  }

  if (!config_.membership_churn.empty()) {
    churn_ = config_.membership_churn;
    std::stable_sort(
        churn_.begin(), churn_.end(),
        [](const ShardedScenarioConfig::ChurnEvent& a,
           const ShardedScenarioConfig::ChurnEvent& b) { return a.at < b.at; });
    // Initial chains, same assignment World uses, so repairs have a ring to
    // repair and tests can compare the bookkeeping across shard counts.
    replication::assign_chains(directory_, config_.backup_k);
    // Anchor events: a no-op in the owning shard's queue at every churn and
    // departure-due time, so run_to_quiescence cannot drain past a pending
    // transition and the barrier sequence is identical for any shard count.
    for (const ShardedScenarioConfig::ChurnEvent& event : churn_) {
      RDP_CHECK(event.mss >= 0 && event.mss < base.num_mss,
                "churn event names an unknown Mss");
      sim::Simulator& home =
          sim_.shard(cell_shard_[static_cast<std::size_t>(event.mss)]);
      home.schedule_at(common::SimTime::zero() + event.at, [] {});
      if (!event.up) {
        home.schedule_at(common::SimTime::zero() + event.at +
                             base.replication.departure_threshold,
                         [] {});
      }
    }
  }

  // One barrier per window (docs/PROTOCOL.md §10): churn transitions and
  // the wireless mirror, which the protocol can observe, then the tap
  // merge, which replays the window's records into the global observers
  // and the instruments in canonical order.
  sim_.set_barrier_hook([this](common::SimTime at) {
    apply_churn(at);
    sync_mirrors();
    merger_.flush();
  });
}

ShardedWorld::~ShardedWorld() = default;

int ShardedWorld::shard_of_cell(common::CellId cell) const {
  return cell_shard_.at(cell.value());
}

void ShardedWorld::route_wired(int src, net::Envelope envelope,
                               sim::EventPriority priority,
                               std::uint64_t stream_key,
                               std::uint64_t stream_seq) {
  const int dst = addr_shard_.at(envelope.dst.value());
  sim::ShardInjection injection;
  injection.at = envelope.arrives_at;
  injection.priority = priority;
  injection.stream_key = stream_key;
  injection.stream_seq = stream_seq;
  net::WiredNetwork* network = &shards_[static_cast<std::size_t>(dst)]->wired;
  injection.run = [network, envelope = std::move(envelope)] {
    network->deliver_injected(envelope);
  };
  sim_.post(src, dst, std::move(injection));
}

void ShardedWorld::route_wireless(int src, net::WirelessFrame frame,
                                  std::uint64_t stream_key,
                                  std::uint64_t stream_seq) {
  const int dst = frame.uplink ? cell_shard_.at(frame.cell.value())
                               : mh_home_shard_.at(frame.mh.value());
  sim::ShardInjection injection;
  injection.at = frame.arrives_at;
  injection.priority = frame.priority;
  injection.stream_key = stream_key;
  injection.stream_seq = stream_seq;
  net::WirelessChannel* channel =
      &shards_[static_cast<std::size_t>(dst)]->wireless;
  if (frame.uplink) {
    injection.run = [channel, frame = std::move(frame)] {
      channel->deliver_injected_uplink(frame.mh, frame.cell, frame.payload);
    };
  } else {
    // A downlink arrival wakes the mobile host, whose cascade can only
    // uplink: widen the window schedule with the wireless reaction bound.
    injection.reaction_bound = channel->reaction_bound();
    injection.run = [channel, frame = std::move(frame)] {
      channel->deliver_injected_downlink(frame.cell, frame.mh, frame.payload);
    };
  }
  sim_.post(src, dst, std::move(injection));
}

void ShardedWorld::sync_mirrors() {
  // Deltas are absolute states and each Mh's originate on one shard (its
  // home), so applying buffers in shard order is partition-invariant.
  for (auto& shard : shards_) {
    for (const auto& [mh, state] : shard->wireless.take_state_deltas()) {
      mirror_[mh.value()] = state;
    }
  }
}

void ShardedWorld::apply_churn(common::SimTime now) {
  // Runs at every window barrier: single-threaded, after all shards have
  // reached `now`.  Transition times are taken from the plan (not the
  // barrier stamp), so the decision sequence is a pure function of the
  // plan and the directory — identical for every shard count.
  while (next_churn_ < churn_.size() &&
         common::SimTime::zero() + churn_[next_churn_].at <= now) {
    const ShardedScenarioConfig::ChurnEvent& event = churn_[next_churn_++];
    core::Mss& target = *msses_.at(static_cast<std::size_t>(event.mss));
    const common::MssId id = target.id();
    if (!event.up) {
      if (!target.crashed()) target.crash();
      pending_departures_[id] = common::SimTime::zero() + event.at +
                                config_.base.replication.departure_threshold;
    } else {
      if (target.crashed()) target.restart();
      pending_departures_.erase(id);
      if (directory_.mss_departed(id)) {
        directory_.set_mss_departed(id, false);
        directory_.bump_membership_epoch();
        replication::assign_chains(directory_, config_.backup_k);
        // Counters land in the host's home shard so merged_counters() (a
        // commutative sum) pins churn activity shard-count-invariantly.
        shards_.at(static_cast<std::size_t>(
                       cell_shard_[static_cast<std::size_t>(event.mss)]))
            ->counters.increment("membership.rejoins");
        observers_.on_event({.kind = core::Hook::kMssRejoined,
                             .at = now,
                             .id_a = id.value(),
                             .epoch = directory_.membership_epoch()});
      }
    }
  }
  for (auto it = pending_departures_.begin();
       it != pending_departures_.end();) {
    if (it->second > now) {
      ++it;
      continue;
    }
    const common::MssId id = it->first;
    it = pending_departures_.erase(it);
    if (directory_.mss_up(id) || directory_.mss_departed(id)) continue;
    directory_.set_mss_departed(id, true);
    directory_.bump_membership_epoch();
    replication::assign_chains(directory_, config_.backup_k);
    shards_.at(static_cast<std::size_t>(
                   cell_shard_[static_cast<std::size_t>(id.value())]))
        ->counters.increment("membership.departures");
    observers_.on_event({.kind = core::Hook::kMssDeparted,
                         .at = now,
                         .id_a = id.value(),
                         .epoch = directory_.membership_epoch()});
  }
}

stats::CounterRegistry ShardedWorld::merged_counters() const {
  stats::CounterRegistry merged;
  for (const auto& shard : shards_) {
    for (const auto& [name, value] : shard->counters.all()) {
      merged.increment(name, value);
    }
  }
  return merged;
}

std::uint64_t ShardedWorld::wired_messages_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->wired.messages_sent();
  return total;
}

std::uint64_t ShardedWorld::wired_bytes_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->wired.bytes_sent();
  return total;
}

std::uint64_t ShardedWorld::causal_delayed_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->causal) total += shard->causal->delayed_total();
  }
  return total;
}

}  // namespace rdp::harness
