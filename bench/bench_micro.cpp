// M1 — microbenchmarks of the building blocks (google-benchmark): event
// kernel throughput (flat, under standing queue depth and under a standing
// timer backlog), wired/causal messaging cost, sharded-kernel scheduling
// overhead (intra-shard vs cross-shard hand-off), the invariant auditor's
// per-request cost, the mobile host's per-result cost against its delivery
// history, and whole-world simulation rates on both kernels.
// These bound how large a scenario the experiment binaries can afford.
//
// Beyond the interactive table, the binary doubles as the perf-regression
// gate for CI:
//
//   bench_micro --out BENCH_kernel.json     write machine-readable baseline
//   bench_micro --check BENCH_kernel.json   fail (exit 1) if any benchmark's
//                                           items/s fell more than
//                                           RDP_PERF_TOLERANCE (default 0.30)
//                                           below the baseline
//   bench_micro --smoke                     quick pass (short min_time)
//   bench_micro --profile                   after the table, run the
//                                           BM_ScenarioThroughput workload
//                                           once with the instrumentation
//                                           profiler armed and print the
//                                           attribution (PROTOCOL.md §13)
//   bench_micro --profile-folded out.txt    also write the collapsed-stack
//                                           file (implies --profile)
//   bench_micro --profile-attr out.json     also write the attribution as
//                                           JSON (implies --profile)
//
// All other flags pass through to google-benchmark.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/wire_tap.h"
#include "bench/bench_util.h"
#include "causal/causal_layer.h"
#include "common/pool_alloc.h"
#include "common/rng.h"
#include "core/messages.h"
#include "core/mobile_host.h"
#include "core/runtime.h"
#include "harness/experiment.h"
#include "harness/world.h"
#include "net/wired.h"
#include "obs/invariant_auditor.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace {

using namespace rdp;
using common::Duration;
using sim::SimTime;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sum = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule(Duration::micros(i), [&sum, i] { sum += i; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

// Steady-state schedule+run cost with a standing backlog keeping the event
// queue at a fixed depth: how the heap scales as worlds get bigger.
void BM_SimulatorQueueDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  constexpr int kBatch = 1000;
  sim::Simulator sim;
  for (int i = 0; i < depth; ++i) {
    sim.schedule(Duration::seconds(1'000'000) + Duration::micros(i), [] {});
  }
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim.schedule(Duration::micros(i % 100), [&sum] { ++sum; });
    }
    sim.run_until(sim.now() + Duration::millis(1));
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SimulatorQueueDepth)->Arg(256)->Arg(4096)->Arg(65536);

// A standing backlog of range(0) host timers due 1–120 s out, under a
// stream of near-term events.  Each batch cancels and re-arms 100 of the
// timers (the Mh dwell and re-issue watchdog pattern), schedules 1,000
// events within 100 µs and runs 1 ms; a timer that fires re-arms itself.
// When the kernel's cost follows the events due soon, not the backlog,
// both sizes run at about the same rate (perf-smoke logs the ratio).
void BM_SimulatorTimerBacklog(benchmark::State& state) {
  constexpr int kBatch = 1000;
  constexpr int kRearms = 100;
  struct Backlog {
    sim::Simulator sim;
    common::Rng rng{7};
    std::vector<sim::TimerHandle> timers;
    void arm(std::size_t i) {
      const Duration delay =
          Duration::micros(rng.uniform_int(1'000'000, 120'000'000));
      timers[i] = sim.schedule(delay, [this, i] { arm(i); });
    }
  } backlog;
  backlog.timers.resize(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < backlog.timers.size(); ++i) backlog.arm(i);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int r = 0; r < kRearms; ++r) {
      const auto i = static_cast<std::size_t>(backlog.rng.uniform_int(
          0, static_cast<std::int64_t>(backlog.timers.size()) - 1));
      backlog.timers[i].cancel();
      backlog.arm(i);
    }
    for (int i = 0; i < kBatch; ++i) {
      backlog.sim.schedule(Duration::micros(i % 100), [&sum] { ++sum; });
    }
    backlog.sim.run_until(backlog.sim.now() + Duration::millis(1));
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * (kBatch + kRearms));
}
BENCHMARK(BM_SimulatorTimerBacklog)->Arg(1000)->Arg(100000);

void BM_SimulatorTimerCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      auto handle = sim.schedule(Duration::millis(1), [] {});
      handle.cancel();
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerCancel);

// Chains of deliveries through the sharded kernel's outbox/barrier path.
// Intra-shard chains (src == dst) measure the pure mailbox overhead every
// send pays in shard mode; cross-shard chains add the canonical sort and
// the per-window fence, i.e. the real hand-off cost the lookahead buys.
void schedule_hop(sim::ShardedSimulator& sharded, int src, bool cross,
                  std::uint64_t chain, std::uint64_t seq, SimTime at,
                  std::uint64_t* hops, std::uint64_t limit);

void schedule_hop(sim::ShardedSimulator& sharded, int src, bool cross,
                  std::uint64_t chain, std::uint64_t seq, SimTime at,
                  std::uint64_t* hops, std::uint64_t limit) {
  const int dst = cross ? 1 - src : src;
  sim::ShardInjection injection;
  injection.at = at;
  injection.stream_key = chain;
  injection.stream_seq = seq;
  injection.run = [&sharded, dst, cross, chain, seq, at, hops, limit] {
    ++*hops;
    if (*hops >= limit) return;
    schedule_hop(sharded, dst, cross, chain, seq + 1,
                 at + Duration::millis(1), hops, limit);
  };
  sharded.post(src, dst, std::move(injection));
}

void run_hop_chain(benchmark::State& state, bool cross) {
  constexpr int kChains = 64;
  constexpr std::uint64_t kTotalHops = 16384;
  for (auto _ : state) {
    sim::ShardedSimulator::Options options;
    options.shards = 2;
    options.threads = 1;
    options.lookahead = Duration::millis(1);
    sim::ShardedSimulator sharded(options);
    std::uint64_t hops = 0;
    for (int c = 0; c < kChains; ++c) {
      schedule_hop(sharded, c % 2, cross, static_cast<std::uint64_t>(c), 0,
                   SimTime::from_micros(1000), &hops, kTotalHops);
    }
    sharded.run();
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTotalHops));
}

void BM_ShardedIntraShard(benchmark::State& state) {
  run_hop_chain(state, false);
}
BENCHMARK(BM_ShardedIntraShard);

void BM_ShardedCrossShard(benchmark::State& state) {
  run_hop_chain(state, true);
}
BENCHMARK(BM_ShardedCrossShard);

// Flattened observer dispatch (core/events.h): an observer that subscribes
// to a single kind.  An event of that kind walks a one-element per-kind
// vector (hit); an event of any other kind is one bit-test against the
// active mask and returns (miss) — the cost every unsubscribed kind pays
// per protocol event.
struct OneHookObserver final : core::RdpObserver {
  std::uint64_t seen = 0;
  [[nodiscard]] std::uint32_t hook_mask() const override {
    return core::hook_bit(core::Hook::kRequestIssued);
  }
  void on_event(const core::Event&) override { ++seen; }
};

void run_hook_dispatch(benchmark::State& state, bool hit) {
  OneHookObserver observer;
  core::ObserverList list;
  list.add(&observer);
  const common::MhId mh{1};
  const core::Event event{
      .kind = hit ? core::Hook::kRequestIssued : core::Hook::kRequestCompleted,
      .at = SimTime::zero(),
      .mh = mh,
      .request = common::RequestId(mh, 1),
      .id_a = 1};
  for (auto _ : state) list.on_event(event);
  benchmark::DoNotOptimize(observer.seen);
  state.SetItemsProcessed(state.iterations());
}

void BM_HookDispatchHit(benchmark::State& state) {
  run_hook_dispatch(state, true);
}
BENCHMARK(BM_HookDispatchHit);

void BM_HookDispatchMiss(benchmark::State& state) {
  run_hook_dispatch(state, false);
}
BENCHMARK(BM_HookDispatchMiss);

// The pooled allocator under the hot path (common/pool_alloc.h) against
// plain operator new, at the message-payload size class; after warm-up the
// pool never touches the system allocator.  The batch array goes to
// DoNotOptimize whole: with GCC, DoNotOptimize on one pointer-sized lvalue
// ("+m,r") can leave garbage in the slot, which the free loop would then
// hand to the allocator.
constexpr std::size_t kAllocSize = 96;
constexpr int kAllocBatch = 1024;

void BM_PoolAlloc(benchmark::State& state) {
  void* blocks[kAllocBatch];
  for (auto _ : state) {
    for (int i = 0; i < kAllocBatch; ++i) {
      blocks[i] = common::pool::allocate(kAllocSize);
    }
    benchmark::DoNotOptimize(blocks);
    for (int i = 0; i < kAllocBatch; ++i) {
      common::pool::deallocate(blocks[i], kAllocSize);
    }
  }
  state.SetItemsProcessed(state.iterations() * kAllocBatch);
}
BENCHMARK(BM_PoolAlloc);

void BM_HeapAlloc(benchmark::State& state) {
  void* blocks[kAllocBatch];
  for (auto _ : state) {
    for (int i = 0; i < kAllocBatch; ++i) {
      blocks[i] = ::operator new(kAllocSize);
    }
    benchmark::DoNotOptimize(blocks);
    for (int i = 0; i < kAllocBatch; ++i) {
      ::operator delete(blocks[i]);
    }
  }
  state.SetItemsProcessed(state.iterations() * kAllocBatch);
}
BENCHMARK(BM_HeapAlloc);

struct NullEndpoint final : net::Endpoint {
  std::uint64_t received = 0;
  void on_message(const net::Envelope&) override { ++received; }
};

struct PingMsg final : net::Message<PingMsg> {
  auto fields() const { return std::tie(); }
  const char* name() const override { return "ping"; }
};

void BM_WiredMessage(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    net::WiredNetwork wired(sim, common::Rng(1), net::WiredConfig{});
    NullEndpoint a, b;
    wired.attach(common::NodeAddress(0), &a);
    wired.attach(common::NodeAddress(1), &b);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      wired.send(common::NodeAddress(0), common::NodeAddress(1),
                 net::make_message<PingMsg>());
    }
    sim.run();
    benchmark::DoNotOptimize(b.received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WiredMessage);

void BM_CausalLayerMessage(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    net::WiredNetwork wired(sim, common::Rng(1), net::WiredConfig{});
    causal::CausalLayer layer(wired);
    std::vector<std::unique_ptr<NullEndpoint>> endpoints;
    for (int i = 0; i < nodes; ++i) {
      endpoints.push_back(std::make_unique<NullEndpoint>());
      layer.attach(common::NodeAddress(static_cast<std::uint32_t>(i)),
                   endpoints.back().get());
    }
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      layer.send(common::NodeAddress(static_cast<std::uint32_t>(i % nodes)),
                 common::NodeAddress(static_cast<std::uint32_t>((i + 1) % nodes)),
                 net::make_message<PingMsg>(), sim::EventPriority::kNormal);
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel(std::to_string(nodes) + " nodes, ring traffic");
}
BENCHMARK(BM_CausalLayerMessage)->Arg(4)->Arg(16)->Arg(64);

// The causal layer under campus-shaped wired traffic: 64 Msses on an 8x8
// grid and 2 servers.  Each round every Mss exchanges a request and a
// reply with a server, a quarter of them also exchange a dereg/deregAck
// pair with a random neighbour on the (wrapping) grid, and the round is
// delivered before the next begins, so causal knowledge spreads the way
// it does in a campus run.  The `wired_bytes_per_msg` counter is the mean
// wire size of a message, piggyback included.
void BM_CausalLayerCampus(benchmark::State& state) {
  constexpr int kSide = 8;
  constexpr int kMss = kSide * kSide;
  constexpr int kRounds = 40;
  const auto address = [](int node) {
    return common::NodeAddress(static_cast<std::uint32_t>(node));
  };
  std::int64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    net::WiredNetwork wired(sim, common::Rng(1), net::WiredConfig{});
    wired.add_send_observer([&bytes](const net::Envelope& envelope) {
      bytes += envelope.payload->wire_size();
    });
    causal::CausalLayer layer(wired);
    std::vector<std::unique_ptr<NullEndpoint>> endpoints;
    for (int i = 0; i < kMss + 2; ++i) {
      endpoints.push_back(std::make_unique<NullEndpoint>());
      layer.attach(address(i), endpoints.back().get());
    }
    common::Rng rng(7);
    state.ResumeTiming();
    const auto send = [&](int src, int dst) {
      layer.send(address(src), address(dst), net::make_message<PingMsg>(),
                 sim::EventPriority::kNormal);
      ++messages;
    };
    for (int round = 0; round < kRounds; ++round) {
      for (int mss = 0; mss < kMss; ++mss) {
        const int server = kMss + (mss + round) % 2;
        send(mss, server);
        send(server, mss);
        if (!rng.bernoulli(0.25)) continue;
        const int row = mss / kSide;
        const int col = mss % kSide;
        const int step = rng.bernoulli(0.5) ? 1 : -1;
        const int neighbour =
            rng.bernoulli(0.5)
                ? row * kSide + (col + step + kSide) % kSide
                : ((row + step + kSide) % kSide) * kSide + col;
        send(neighbour, mss);
        send(mss, neighbour);
      }
      sim.run();
    }
  }
  state.SetItemsProcessed(messages);
  state.counters["wired_bytes_per_msg"] =
      static_cast<double>(bytes) / static_cast<double>(messages);
  state.SetLabel("64 Mss on an 8x8 grid + 2 servers");
}
BENCHMARK(BM_CausalLayerCampus);

// One complete request round trip (register, relay, serve, forward,
// deliver, ack, teardown) through the full stack.
void BM_EndToEndRequest(benchmark::State& state) {
  harness::ScenarioConfig config;
  config.num_mss = 2;
  config.num_mh = 1;
  config.num_servers = 1;
  config.server.base_service_time = Duration::millis(10);
  harness::World world(config);
  world.mh(0).power_on(world.cell(0));
  world.run_for(Duration::millis(200));
  for (auto _ : state) {
    world.mh(0).issue_request(world.server_address(0), "q");
    world.run_for(Duration::millis(200));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndRequest);

harness::ExperimentParams throughput_params() {
  harness::ExperimentParams params;
  params.seed = 77;
  params.num_mh = 20;
  params.sim_time = Duration::seconds(120);
  params.drain_time = Duration::seconds(30);
  params.mean_dwell = Duration::seconds(15);
  params.mean_request_interval = Duration::seconds(5);
  return params;
}

// Whole-scenario throughput: kernel events per second of wall-clock the
// harness achieves on a mid-size world (single kernel).
void BM_ScenarioThroughput(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = harness::run_rdp_experiment(throughput_params());
    benchmark::DoNotOptimize(result.requests_completed);
    events += result.kernel_events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ScenarioThroughput);

// The identical workload over the sharded kernel — the per-shard overhead
// (mailbox posts, window barriers, observer merge) shows up as the gap to
// BM_ScenarioThroughput.
void BM_ShardedScenarioThroughput(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::ExperimentParams params = throughput_params();
    params.shards = shards;
    params.shard_threads = 1;
    const auto result = harness::run_sharded_rdp_experiment(params);
    benchmark::DoNotOptimize(result.requests_completed);
    events += result.kernel_events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ShardedScenarioThroughput)->Arg(1)->Arg(4);

// Per-frame cost of the passive wire analyzer's tap: re-encode for the tap,
// self-decode, and run the conformance rules.  A registration-complete
// connection with a rotating request pool keeps the analyzer's state
// bounded, so this is the steady-state hot-path cost every wireless frame
// pays when an experiment runs with --analyzer.
void BM_AnalyzerFrameTap(benchmark::State& state) {
  analyzer::AnalyzerConfig config;
  config.enabled = true;
  config.honor_fatal_env = false;
  analyzer::Analyzer wire(config);
  analyzer::WireTap tap(wire);
  const common::MhId mh(0);

  constexpr int kPool = 64;
  std::vector<net::PayloadPtr> requests, results, acks;
  for (int i = 0; i < kPool; ++i) {
    const common::RequestId request(mh, static_cast<std::uint32_t>(i));
    requests.push_back(net::make_message<core::MsgUplinkRequest>(
        request, common::NodeAddress(1), "q", false));
    results.push_back(net::make_message<core::MsgDownlinkResult>(
        request, 1, true, "result", 1));
    acks.push_back(net::make_message<core::MsgUplinkAck>(request, 1));
  }
  std::uint64_t t = 0;
  const auto feed = [&](const net::PayloadPtr& payload, bool uplink,
                        net::FramePhase phase) {
    tap.on_wireless_frame(common::SimTime::from_micros(++t), mh, payload,
                          uplink, phase);
  };
  // Register once so the per-frame rules run their normal, satisfied paths.
  feed(net::make_message<core::MsgJoin>(), true, net::FramePhase::kSent);
  const auto reg =
      net::make_message<core::MsgRegistrationAck>(common::MssId(0));
  feed(reg, false, net::FramePhase::kSent);
  feed(reg, false, net::FramePhase::kDelivered);

  std::uint64_t frames = 0;
  for (auto _ : state) {
    const std::size_t i = frames / 4 % kPool;
    feed(requests[i], true, net::FramePhase::kSent);
    feed(results[i], false, net::FramePhase::kSent);
    feed(results[i], false, net::FramePhase::kDelivered);
    feed(acks[i], true, net::FramePhase::kSent);
    frames += 4;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_AnalyzerFrameTap);

// BM_ScenarioThroughput with the analyzer attached: the gap to the plain
// run is the analyzer's whole-world overhead (perf-smoke logs the same
// on-vs-off comparison from the experiment binaries).
void BM_ScenarioThroughputAnalyzer(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::ExperimentParams params = throughput_params();
    params.analyzer = true;
    const auto result = harness::run_rdp_experiment(params);
    benchmark::DoNotOptimize(result.requests_completed);
    events += result.kernel_events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ScenarioThroughputAnalyzer);

// Per-request cost of the always-on invariant auditor.  Each iteration is
// one complete request lifecycle (issued, proxy created, reached, result at
// the proxy, final delivery, completed, del-proxy ack, proxy deleted),
// round-robin over 1,000 Mhs, after range(0) completed requests are already
// in the books.  When the cost per event does not grow with the books, both
// arguments run at about the same rate (perf-smoke logs the ratio).
void BM_AuditorRequestLifecycle(benchmark::State& state) {
  obs::InvariantAuditor auditor({.honor_fatal_env = false});
  constexpr std::uint32_t kMhs = 1000;
  const common::NodeAddress host(1);
  const common::NodeAddress server(2);
  std::vector<std::uint32_t> next_seq(kMhs, 0);
  std::uint64_t n = 0;  // lifecycles so far
  const auto lifecycle = [&] {
    const auto m = static_cast<std::uint32_t>(n % kMhs);
    const common::MhId mh(m);
    const common::RequestId r(mh, next_seq[m]++);
    const common::ProxyId proxy(static_cast<std::uint32_t>(n));
    const SimTime t = SimTime::from_micros(static_cast<std::int64_t>(++n));
    auditor.on_request_issued(t, mh, r, server);
    auditor.on_proxy_created(t, mh, host, proxy);
    auditor.on_request_reached_proxy(t, mh, r, host);
    auditor.on_result_at_proxy(t, mh, r, 1);
    auditor.on_result_delivered(t, mh, r, 1, true, false, 1);
    auditor.on_request_completed(t, mh, r);
    auditor.on_ack_forwarded(t, mh, r, 1, /*del_proxy=*/true);
    auditor.on_proxy_deleted(t, mh, host, proxy, /*via_gc=*/false);
  };
  for (std::int64_t i = 0; i < state.range(0); ++i) lifecycle();
  for (auto _ : state) lifecycle();
  if (!auditor.clean()) state.SkipWithError("the lifecycle tripped a rule");
  benchmark::DoNotOptimize(auditor.finished());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditorRequestLifecycle)->Arg(1000)->Arg(100000);

// Per-result cost of a mobile host's downlink path: the duplicate filter,
// the delivery and the Ack's uplink, through MobileHostAgent::on_downlink
// on a bare runtime, after range(0) results were already delivered.  Every
// result is new (a fresh request's final).  The radio drops every uplink,
// so the Acks schedule nothing.  When the filter's cost does not grow with
// the host's history, both arguments run at about the same rate
// (perf-smoke logs the ratio).
void BM_MobileHostDeliveries(benchmark::State& state) {
  struct DeafMss final : net::UplinkReceiver {
    void on_uplink(common::MhId, const net::PayloadPtr&) override {}
  };
  sim::Simulator simulator;
  net::WiredNetwork wired(simulator, common::Rng(1), net::WiredConfig{});
  net::WirelessChannel wireless(simulator, common::Rng(2),
                                net::WirelessConfig{});
  core::Directory directory;
  const core::RdpConfig config;
  core::RdpObserver observer;
  stats::CounterRegistry counters;
  core::Runtime runtime{simulator, wired,    wireless, directory,
                        config,    observer, counters};
  DeafMss mss;
  const common::CellId cell(0);
  const common::MhId id(0);
  wireless.register_cell(cell, common::MssId(0), &mss);
  core::MobileHostAgent mh(runtime, id);
  wireless.place_mh(id, cell);
  wireless.set_mh_active(id, true);
  wireless.set_drop_filter(
      [](common::MhId, const net::PayloadPtr&, bool) { return true; });

  std::uint32_t request = 0;
  const auto deliver = [&] {
    mh.on_downlink(cell, net::make_message<core::MsgDownlinkResult>(
                             common::RequestId(id, ++request), 1, true, "r",
                             1));
  };
  for (std::int64_t i = 0; i < state.range(0); ++i) deliver();
  for (auto _ : state) deliver();
  if (mh.duplicate_deliveries() != 0) {
    state.SkipWithError("a new result was taken for a duplicate");
  }
  benchmark::DoNotOptimize(mh.deliveries());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MobileHostDeliveries)->Arg(1000)->Arg(100000);

// --- baseline emission / regression gate ------------------------------

// Captures items_per_second per benchmark while still printing the normal
// console table.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        items_per_second[run.benchmark_name()] = it->second.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> items_per_second;
};

bool write_baseline(const std::string& path,
                    const std::map<std::string, double>& items) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  out << "  \"schema\": \"rdp-kernel-bench-v1\",\n";
  out << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"micro\": {\n";
  bool first = true;
  for (const auto& [name, ips] : items) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << name << "\": " << std::scientific << ips;
  }
  out << "\n  }\n";
  out << "}\n";
  return static_cast<bool>(out);
}

// Minimal lookup of "name": <number> in the baseline JSON.  Names are
// google-benchmark identifiers ([A-Za-z0-9_/]) so a flat scan is unambiguous.
bool baseline_value(const std::string& text, const std::string& name,
                    double* value) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = text.c_str() + pos + needle.size();
  char* end = nullptr;
  *value = std::strtod(start, &end);
  return end != start;
}

int check_against_baseline(const std::string& path,
                           const std::map<std::string, double>& items) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_micro: cannot read baseline %s\n",
                 path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  double tolerance = 0.30;
  if (const char* env = std::getenv("RDP_PERF_TOLERANCE")) {
    tolerance = std::strtod(env, nullptr);
  }

  int regressions = 0;
  for (const auto& [name, ips] : items) {
    double base = 0;
    if (!baseline_value(text, name, &base)) {
      std::printf("PERF  %-44s no baseline entry (new benchmark)\n",
                  name.c_str());
      continue;
    }
    const double ratio = base > 0 ? ips / base : 1.0;
    const bool regressed = ratio < 1.0 - tolerance;
    std::printf("PERF  %-44s %.3g items/s vs baseline %.3g (%+.1f%%)%s\n",
                name.c_str(), ips, base, (ratio - 1.0) * 100,
                regressed ? "  REGRESSION" : "");
    if (regressed) ++regressions;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_micro: %d benchmark(s) regressed more than %.0f%% "
                 "below baseline %s\n",
                 regressions, tolerance * 100, path.c_str());
    return 1;
  }
  std::printf("bench_micro: all benchmarks within %.0f%% of baseline\n",
              tolerance * 100);
  return 0;
}

// One profiled run of the BM_ScenarioThroughput workload: console
// attribution plus the optional folded-stack / attribution-JSON artifacts
// CI uploads.  Returns false when a requested artifact could not be
// written.
bool run_profile_section(const std::string& folded_path,
                         const std::string& attr_path) {
  harness::ExperimentParams params = throughput_params();
  params.profile = true;
  params.profile_folded_out = folded_path;
  obs::ProfileReport report;
  params.profile_report = &report;
  const auto result = harness::run_rdp_experiment(params);

  std::printf("\n-- profile: BM_ScenarioThroughput workload "
              "(seed %llu, %llu kernel events) --\n",
              static_cast<unsigned long long>(params.seed),
              static_cast<unsigned long long>(result.kernel_events));
  benchutil::print_profile(report);
  bool ok = true;
  if (!folded_path.empty()) {
    std::printf("folded stacks written to %s\n", folded_path.c_str());
  }
  if (!attr_path.empty()) {
    std::ofstream out(attr_path);
    if (out) {
      out << "{\n  \"schema\": \"rdp-prof-attribution-v1\",\n"
          << "  \"workload\": \"BM_ScenarioThroughput\",\n"
          << "  \"attribution\": " << benchutil::profile_json(report)
          << "\n}\n";
    }
    if (out) {
      std::printf("attribution JSON written to %s\n", attr_path.c_str());
    } else {
      std::fprintf(stderr, "bench_micro: failed to write %s\n",
                   attr_path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  std::string profile_folded_path;
  std::string profile_attr_path;
  bool smoke = false;
  bool profile = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  static char min_time_flag[] = "--benchmark_min_time=0.05";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--profile-folded" && i + 1 < argc) {
      profile_folded_path = argv[++i];
      profile = true;
    } else if (arg == "--profile-attr" && i + 1 < argc) {
      profile_attr_path = argv[++i];
      profile = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (smoke) passthrough.push_back(min_time_flag);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!out_path.empty()) {
    if (!write_baseline(out_path, reporter.items_per_second)) {
      std::fprintf(stderr, "bench_micro: failed to write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("bench_micro: wrote %zu benchmark baselines to %s\n",
                reporter.items_per_second.size(), out_path.c_str());
  }
  int status = 0;
  if (profile && !run_profile_section(profile_folded_path, profile_attr_path)) {
    status = 1;
  }
  if (!check_path.empty()) {
    const int check = check_against_baseline(check_path,
                                             reporter.items_per_second);
    if (check != 0) status = check;
  }
  return status;
}
