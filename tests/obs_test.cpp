// Unit and integration tests for the src/obs telemetry subsystem: metrics
// registry label aggregation and sampling, flight-recorder ring semantics,
// span assembly from the observer stream, every invariant-auditor rule
// (strict trip + allowance), and end-to-end runs where a strict auditor is
// attached to a deliberately ablated world and must fire.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/directory.h"
#include "fault/fault_injector.h"
#include "harness/metrics.h"
#include "harness/world.h"
#include "obs/event_names.h"
#include "obs/flight_recorder.h"
#include "obs/invariant_auditor.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/shard_taps.h"
#include "obs/span_tracer.h"
#include "obs/telemetry.h"
#include "tests/trace_util.h"

namespace rdp::obs {
namespace {

using common::Duration;
using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::ProxyId;
using common::RequestId;
using common::SimTime;
using core::Hook;

SimTime at_ms(std::int64_t ms) { return SimTime::from_micros(ms * 1000); }

// --- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, LabelsAreCanonicalized) {
  EXPECT_EQ(format_labels({}), "");
  EXPECT_EQ(format_labels({{"b", "2"}, {"a", "1"}}), "a=1,b=2");

  MetricsRegistry registry;
  registry.counter("hits", {{"mss", "A"}, {"cell", "0"}}).increment();
  // Same label set in a different order resolves to the same instance.
  registry.counter("hits", {{"cell", "0"}, {"mss", "A"}}).increment();
  EXPECT_EQ(registry.counter_value("hits", {{"mss", "A"}, {"cell", "0"}}), 2u);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(MetricsRegistry, CounterFamilyAggregation) {
  MetricsRegistry registry;
  registry.counter("lost", {{"reason", "mh-left"}}).increment(3);
  registry.counter("lost", {{"reason", "mss-crashed"}}).increment(2);
  registry.counter("lost").increment();  // unlabeled member of the family

  EXPECT_EQ(registry.counter_total("lost"), 6u);
  EXPECT_EQ(registry.counter_value("lost", {{"reason", "mh-left"}}), 3u);
  EXPECT_EQ(registry.counter_value("lost", {{"reason", "absent"}}), 0u);

  const auto by_reason = registry.counter_by_label("lost", "reason");
  ASSERT_EQ(by_reason.size(), 3u);
  EXPECT_EQ(by_reason.at("mh-left"), 3u);
  EXPECT_EQ(by_reason.at("mss-crashed"), 2u);
  EXPECT_EQ(by_reason.at(""), 1u);  // the unlabeled instance
}

TEST(MetricsRegistry, HandlesAreStable) {
  MetricsRegistry registry;
  auto& counter = registry.counter("a");
  // Force rebalancing of the underlying map with many inserts.
  for (int i = 0; i < 100; ++i) {
    registry.counter("fill", {{"i", std::to_string(i)}});
  }
  counter.increment(7);
  EXPECT_EQ(registry.counter_value("a"), 7u);
}

TEST(MetricsRegistry, PeriodicSamplingStampsBoundaries) {
  MetricsRegistry registry;
  auto& counter = registry.counter("events");
  registry.start_sampling(SimTime::zero(), Duration::millis(10));

  counter.increment();
  registry.maybe_sample(at_ms(5));  // before the first boundary: no row
  EXPECT_TRUE(registry.samples().empty());

  counter.increment();
  // First event past the boundary emits the pending row, stamped with the
  // boundary time (not the event time).
  registry.maybe_sample(at_ms(12));
  ASSERT_EQ(registry.samples().size(), 1u);
  EXPECT_EQ(registry.samples()[0].at, at_ms(10));
  EXPECT_EQ(registry.samples()[0].metric, "events");
  EXPECT_EQ(registry.samples()[0].value, 2.0);

  // A long quiet gap catches up one row per elapsed boundary.
  registry.maybe_sample(at_ms(41));
  EXPECT_EQ(registry.samples().size(), 4u);
  EXPECT_EQ(registry.samples().back().at, at_ms(40));
}

TEST(MetricsRegistry, CsvExportIsDeterministic) {
  auto run = [] {
    MetricsRegistry registry;
    registry.counter("b", {{"k", "2"}}).increment(2);
    registry.counter("b", {{"k", "1"}}).increment(1);
    registry.gauge("g").set(1.5);
    registry.sample_now(at_ms(100));
    std::ostringstream csv;
    registry.write_csv(csv);
    return csv.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("time_s,metric,labels,value"), std::string::npos);
  // Instances of one family are ordered by canonical label string.
  EXPECT_LT(first.find("k=1"), first.find("k=2"));
}

TEST(MetricsRegistry, JsonExportContainsAllKinds) {
  MetricsRegistry registry;
  registry.counter("c", {{"x", "1"}}).increment();
  registry.gauge("g").set(2.0);
  registry.histogram("h").add(10.0);
  std::ostringstream json;
  registry.write_json(json);
  const std::string out = json.str();
  EXPECT_NE(out.find("\"c{x=1}\""), std::string::npos);
  EXPECT_NE(out.find("\"g\""), std::string::npos);
  EXPECT_NE(out.find("\"h\""), std::string::npos);
}

// --- flight recorder -------------------------------------------------------

TEST(FlightRecorder, RingWrapsAndKeepsNewestTail) {
  FlightRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.record(at_ms(i), "event " + std::to_string(i));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);

  std::ostringstream os;
  recorder.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("last 4 of 10"), std::string::npos);
  EXPECT_EQ(out.find("event 5"), std::string::npos);  // overwritten
  // Oldest retained entry comes first.
  EXPECT_LT(out.find("event 6"), out.find("event 9"));

  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
}

TEST(FlightRecorder, PartiallyFilledDumpIsInOrder) {
  FlightRecorder recorder(8);
  recorder.record(at_ms(1), "first");
  recorder.record(at_ms(2), "second");
  std::ostringstream os;
  recorder.dump(os);
  EXPECT_LT(os.str().find("first"), os.str().find("second"));
  EXPECT_EQ(recorder.size(), 2u);
}

TEST(FlightRecorder, DumpOnLossFiresOnce) {
  FlightRecorder recorder(16);
  std::ostringstream sink;
  recorder.dump_on_loss(&sink);
  const RequestId request(MhId(0), 1);
  recorder.on_event({.kind = Hook::kRequestIssued, .at = at_ms(1),
                     .mh = MhId(0), .request = request, .id_a = 9});
  const core::Event lost{.kind = Hook::kRequestLost, .at = at_ms(2),
                         .mh = MhId(0), .request = request,
                         .reason = core::RequestLossReason::kMssCrashed};
  recorder.on_event(lost);
  EXPECT_NE(sink.str().find("REQUEST_LOST"), std::string::npos);
  EXPECT_NE(sink.str().find("mss-crashed"), std::string::npos);

  const auto size_after_first = sink.str().size();
  recorder.on_event(lost);
  EXPECT_EQ(sink.str().size(), size_after_first);  // one dump per recorder
}

// Records every kind the recorder subscribes to (the flagged ones both
// ways) plus free-form lines, past the ring's capacity, and pins the dump
// text byte for byte: events are stored as they are and only formatted by
// dump().  A kind outside the recorder's mask is not recorded.
TEST(FlightRecorder, DumpTextOfEveryHookIsPinned) {
  FlightRecorder recorder(27);
  const MhId mh(3);
  const RequestId r(mh, 7);
  const std::uint32_t host = 1, server = 9, loc = 2, proxy = 4;
  const std::uint32_t mss0 = 0, mss1 = 1;
  recorder.record(at_ms(0), "overwritten 1");
  recorder.record(at_ms(0), "overwritten 2");
  for (const core::Event& e : std::vector<core::Event>{
           {.kind = Hook::kProxyCreated, .at = at_ms(1), .mh = mh,
            .id_a = host, .id_b = proxy},
           {.kind = Hook::kProxyDeleted, .at = at_ms(2), .mh = mh,
            .id_a = host, .id_b = proxy, .flag_a = true},
           {.kind = Hook::kProxyDeleted, .at = at_ms(2), .mh = mh,
            .id_a = host, .id_b = proxy},
           {.kind = Hook::kRequestIssued, .at = at_ms(3), .mh = mh,
            .request = r, .id_a = server},
           {.kind = Hook::kRequestReachedProxy, .at = at_ms(4), .mh = mh,
            .request = r, .id_a = host},
           {.kind = Hook::kResultAtProxy, .at = at_ms(5), .mh = mh,
            .request = r, .seq = 2},
           {.kind = Hook::kResultForwarded, .at = at_ms(6), .mh = mh,
            .request = r, .id_a = loc, .seq = 2, .attempt = 3,
            .flag_a = true},
           {.kind = Hook::kResultForwarded, .at = at_ms(6), .mh = mh,
            .request = r, .id_a = loc, .seq = 2, .attempt = 1},
           {.kind = Hook::kResultDelivered, .at = at_ms(7), .mh = mh,
            .request = r, .seq = 2, .attempt = 3, .flag_a = true,
            .flag_b = true},
           {.kind = Hook::kResultDelivered, .at = at_ms(7), .mh = mh,
            .request = r, .seq = 1, .attempt = 1},
           {.kind = Hook::kAckForwarded, .at = at_ms(8), .mh = mh,
            .request = r, .seq = 2, .flag_a = true},
           {.kind = Hook::kAckForwarded, .at = at_ms(8), .mh = mh,
            .request = r, .seq = 1},
           {.kind = Hook::kRequestCompleted, .at = at_ms(9), .mh = mh,
            .request = r},
           {.kind = Hook::kRequestLost, .at = at_ms(10), .mh = mh,
            .request = r, .reason = core::RequestLossReason::kProxyGone},
           {.kind = Hook::kHandoffStarted, .at = at_ms(11), .mh = mh,
            .id_a = mss0, .id_b = mss1},
           {.kind = Hook::kHandoffCompleted, .at = at_ms(12), .mh = mh,
            .id_a = mss0, .id_b = mss1, .count_a = 280,
            .duration = Duration::micros(12345)},
           {.kind = Hook::kUpdateCurrentloc, .at = at_ms(13), .mh = mh,
            .id_a = host, .id_b = NodeAddress::invalid().value()},
           {.kind = Hook::kMhRegistered, .at = at_ms(14), .mh = mh,
            .id_a = mss1, .duration = Duration::millis(40)},
           {.kind = Hook::kStaleAckDropped, .at = at_ms(15), .mh = mh,
            .request = r},
           {.kind = Hook::kDelproxyWithPending, .at = at_ms(16), .mh = mh,
            .id_a = proxy},
           {.kind = Hook::kOrphanedProxy, .at = at_ms(17), .mh = mh,
            .id_a = proxy},
           {.kind = Hook::kMssCrashed, .at = at_ms(18), .id_a = mss0,
            .count_a = 5, .count_b = 6},
           {.kind = Hook::kMssRestarted, .at = at_ms(19), .id_a = mss0,
            .count_a = 4},
           {.kind = Hook::kProxyRestored, .at = at_ms(20), .mh = mh,
            .id_a = host, .id_b = proxy},
           {.kind = Hook::kRequestReissued, .at = at_ms(21), .mh = mh,
            .request = r, .attempt = 2},
           // Outside the recorder's mask: not recorded.
           {.kind = Hook::kArqFrameSent, .at = at_ms(21), .mh = mh},
       }) {
    recorder.on_event(e);
  }
  recorder.record(SimTime::from_micros(21500), "FAULT free-form line");
  recorder.on_event({.kind = Hook::kReissueExhausted, .at = at_ms(22),
                     .mh = mh, .request = r, .attempt = 3});

  std::ostringstream os;
  recorder.dump(os);
  EXPECT_EQ(os.str(),
      "-- flight recorder: last 27 of 29 events --\n"
      "       1.000 ms  proxy_created Proxy4 for Mh3 at Node1\n"
      "       2.000 ms  proxy_deleted Proxy4 for Mh3 at Node1 [gc]\n"
      "       2.000 ms  proxy_deleted Proxy4 for Mh3 at Node1\n"
      "       3.000 ms  request_issued Req(Mh3#7) by Mh3 to Node9\n"
      "       4.000 ms  request_reached_proxy Req(Mh3#7) at Node1\n"
      "       5.000 ms  result_at_proxy Req(Mh3#7) seq=2\n"
      "       6.000 ms  result_forwarded Req(Mh3#7) seq=2 attempt=3 to=Node2 [del-pref]\n"
      "       6.000 ms  result_forwarded Req(Mh3#7) seq=2 attempt=1 to=Node2\n"
      "       7.000 ms  result_delivered Req(Mh3#7) seq=2 at Mh3 attempt=3 [final] [dup]\n"
      "       7.000 ms  result_delivered Req(Mh3#7) seq=1 at Mh3 attempt=1\n"
      "       8.000 ms  ack_forwarded Req(Mh3#7) seq=2 [del-proxy]\n"
      "       8.000 ms  ack_forwarded Req(Mh3#7) seq=1\n"
      "       9.000 ms  request_completed Req(Mh3#7)\n"
      "      10.000 ms  REQUEST_LOST Req(Mh3#7) of Mh3 reason=proxy-gone\n"
      "      11.000 ms  handoff_started Mh3 Mss0->Mss1\n"
      "      12.000 ms  handoff_completed Mh3 Mss0->Mss1 (12.345ms, 280 B)\n"
      "      13.000 ms  update_currentLoc Mh3 proxy@Node1 -> Node<none>\n"
      "      14.000 ms  mh_registered Mh3 at Mss1 (40.000ms)\n"
      "      15.000 ms  stale_ack_dropped Req(Mh3#7) from Mh3\n"
      "      16.000 ms  ANOMALY delproxy_with_pending Proxy4 of Mh3\n"
      "      17.000 ms  orphaned_proxy Proxy4 of Mh3\n"
      "      18.000 ms  MSS_CRASHED Mss0 (5 proxies lost, 6 Mhs detached)\n"
      "      19.000 ms  mss_restarted Mss0 (4 proxies restored)\n"
      "      20.000 ms  proxy_restored Proxy4 for Mh3 at Node1\n"
      "      21.000 ms  request_reissued Req(Mh3#7) by Mh3 attempt=2\n"
      "      21.500 ms  FAULT free-form line\n"
      "      22.000 ms  REISSUE_EXHAUSTED Req(Mh3#7) by Mh3 after 3 re-issues\n");
}

// --- shard tap merger ------------------------------------------------------

// Logs the replayed hook stream as one line per event.
class ReplayLog final : public core::RdpObserver {
 public:
  std::vector<std::string> lines;

  void on_proxy_created(SimTime t, MhId mh, NodeAddress host,
                        ProxyId p) override {
    log(t, "proxy_created " + mh.str() + " " + p.str() + "@" + host.str());
  }
  void on_proxy_deleted(SimTime t, MhId mh, NodeAddress host, ProxyId p,
                        bool) override {
    log(t, "proxy_deleted " + mh.str() + " " + p.str() + "@" + host.str());
  }
  void on_request_issued(SimTime t, MhId, RequestId r, NodeAddress) override {
    log(t, "request_issued " + r.str());
  }
  void on_request_reached_proxy(SimTime t, MhId, RequestId r,
                                NodeAddress) override {
    log(t, "request_reached_proxy " + r.str());
  }
  void on_ack_forwarded(SimTime t, MhId, RequestId r, std::uint32_t,
                        bool) override {
    log(t, "ack_forwarded " + r.str());
  }
  void on_request_completed(SimTime t, MhId, RequestId r) override {
    log(t, "request_completed " + r.str());
  }
  void on_arq_frame_sent(SimTime t, MhId mh, std::uint32_t epoch,
                         std::uint32_t seq, std::uint32_t, std::size_t,
                         std::size_t) override {
    log(t, "arq_frame_sent " + mh.str() + " " + std::to_string(epoch) + ":" +
               std::to_string(seq));
  }
  void on_arq_delivered(SimTime t, MhId mh, std::uint32_t epoch,
                        std::uint32_t seq, bool) override {
    log(t, "arq_delivered " + mh.str() + " " + std::to_string(epoch) + ":" +
               std::to_string(seq));
  }
  void on_mss_crashed(SimTime t, MssId mss, std::size_t,
                      std::size_t) override {
    log(t, "mss_crashed " + mss.str());
  }

 private:
  void log(SimTime t, const std::string& line) {
    lines.push_back(std::to_string(t.count_micros() / 1000) + " " + line);
  }
};

// Two shards record hooks that share one instant; the merged replay must
// follow the canonical (time, entity tag, rank, secondary tag) order, not
// the shards' program order.  The old proxy's teardown chain ranks before
// the new incarnation's creation chain, an ARQ delivery before everything
// it triggers and a frame send after it, a lower Mh id before a higher one,
// and Mss-keyed hooks after every Mh.
TEST(ShardTapMerger, ReplaysOneInstantInRankAndTagOrder) {
  sim::Simulator simulator;
  ShardObserverBuffer shard0(simulator), shard1(simulator);
  ShardTapMerger merger;
  merger.add_buffer(&shard0);
  merger.add_buffer(&shard1);
  ReplayLog log;
  merger.set_hook_sink(&log);

  const MhId mh1(1), mh2(2);
  const RequestId old_req(mh1, 3), new_req(mh1, 4), other(mh2, 1);
  const std::uint32_t host = 0, server = 9;
  const SimTime t = at_ms(5);
  const auto frame = [&](MhId mh, Hook kind, std::uint32_t seq) {
    return core::Event{.kind = kind, .at = t, .mh = mh, .seq = seq,
                       .attempt = 1, .epoch = 1, .count_a = 1,
                       .count_b = 4};
  };
  // Shard 0: the Mh's next request creates a fresh proxy, and the ARQ
  // frame that carried it is delivered; also a second Mh and a crash.
  for (const core::Event& e : std::vector<core::Event>{
           {.kind = Hook::kMssCrashed, .at = t, .id_a = 0, .count_a = 1,
            .count_b = 1},
           frame(mh2, Hook::kArqFrameSent, 5),
           frame(mh2, Hook::kArqFrameSent, 4),
           {.kind = Hook::kRequestIssued, .at = t, .mh = mh2,
            .request = other, .id_a = server},
           frame(mh1, Hook::kArqFrameSent, 8),
           {.kind = Hook::kProxyCreated, .at = t, .mh = mh1, .id_a = host,
            .id_b = 1},
           {.kind = Hook::kRequestReachedProxy, .at = t, .mh = mh1,
            .request = new_req, .id_a = host},
           frame(mh1, Hook::kArqDelivered, 7),
       }) {
    shard0.on_event(e);
  }
  // Shard 1: the final ack tears down the old proxy at the same instant;
  // an earlier instant recorded last still replays first.
  for (const core::Event& e : std::vector<core::Event>{
           {.kind = Hook::kAckForwarded, .at = t, .mh = mh1,
            .request = old_req, .seq = 1, .flag_a = true},
           {.kind = Hook::kRequestCompleted, .at = t, .mh = mh1,
            .request = old_req},
           {.kind = Hook::kProxyDeleted, .at = t, .mh = mh1, .id_a = host,
            .id_b = 0},
           {.kind = Hook::kRequestIssued, .at = at_ms(4), .mh = mh2,
            .request = RequestId(mh2, 0), .id_a = server},
       }) {
    shard1.on_event(e);
  }

  merger.flush();
  EXPECT_EQ(log.lines, (std::vector<std::string>{
      "4 request_issued Req(Mh2#0)",
      "5 arq_delivered Mh1 1:7",
      "5 ack_forwarded Req(Mh1#3)",
      "5 request_completed Req(Mh1#3)",
      "5 proxy_deleted Mh1 Proxy0@Node0",
      "5 proxy_created Mh1 Proxy1@Node0",
      "5 request_reached_proxy Req(Mh1#4)",
      "5 arq_frame_sent Mh1 1:8",
      "5 request_issued Req(Mh2#1)",
      "5 arq_frame_sent Mh2 1:4",
      "5 arq_frame_sent Mh2 1:5",
      "5 mss_crashed Mss0",
  }));

  // A flush drains the buffers: a second one replays nothing.
  log.lines.clear();
  merger.flush();
  EXPECT_TRUE(log.lines.empty());
}

TEST(EventNames, LossReasonsAreNamed) {
  EXPECT_STREQ(loss_reason_name(core::RequestLossReason::kProxyGone),
               "proxy-gone");
  EXPECT_STREQ(loss_reason_name(core::RequestLossReason::kReissueExhausted),
               "reissue-exhausted");
}

// --- span tracer -----------------------------------------------------------

// Drives the tracer with a hand-written event sequence following §4's
// chain and checks the assembled spans.
TEST(SpanTracer, AssemblesRequestServiceAndForwardSpans) {
  SpanTracer tracer;
  const MhId mh(0);
  const RequestId request(mh, 1);
  const NodeAddress server(10), mss0(0), mss1(1);

  tracer.on_request_issued(at_ms(100), mh, request, server);
  tracer.on_proxy_created(at_ms(120), mh, mss0, ProxyId(0));
  tracer.on_request_reached_proxy(at_ms(120), mh, request, mss0);
  tracer.on_result_at_proxy(at_ms(500), mh, request, 1);
  tracer.on_result_forwarded(at_ms(500), mh, request, 1, mss0, 1, false);
  // The first attempt misses (Mh migrated); a second attempt supersedes it.
  tracer.on_result_forwarded(at_ms(600), mh, request, 1, mss1, 2, true);
  tracer.on_result_delivered(at_ms(640), mh, request, 1, true, false, 2);
  tracer.on_ack_forwarded(at_ms(660), mh, request, 1, true);
  tracer.on_request_completed(at_ms(700), mh, request);
  tracer.on_proxy_deleted(at_ms(700), mh, mss0, ProxyId(0), false);

  const auto spans = tracer.request_spans(request);
  ASSERT_EQ(spans.size(), 4u);  // request, service, forward#1, forward#2
  EXPECT_EQ(spans[0].name, "request " + request.str());
  EXPECT_EQ(spans[0].begin, at_ms(100));
  EXPECT_EQ(spans[0].end, at_ms(700));
  EXPECT_FALSE(spans[0].open);
  EXPECT_EQ(spans[1].name, "service " + request.str());
  EXPECT_EQ(spans[1].end, at_ms(500));
  EXPECT_EQ(spans[2].name, "forward#1 " + request.str());
  EXPECT_EQ(spans[2].end, at_ms(600));  // closed when attempt 2 took over
  EXPECT_EQ(spans[3].name, "forward#2 " + request.str());
  EXPECT_EQ(spans[3].end, at_ms(640));  // closed by the delivery

  // The proxy lifetime span closed with the del-proxy.
  bool proxy_span_seen = false;
  for (const auto& span : tracer.spans()) {
    if (span.name == "proxy Proxy0") {
      proxy_span_seen = true;
      EXPECT_EQ(span.begin, at_ms(120));
      EXPECT_EQ(span.end, at_ms(700));
      EXPECT_FALSE(span.open);
    }
  }
  EXPECT_TRUE(proxy_span_seen);
}

TEST(SpanTracer, ChromeTraceIsWellFormedJson) {
  SpanTracer tracer;
  const MhId mh(0);
  const RequestId request(mh, 1);
  tracer.on_request_issued(at_ms(1), mh, request, NodeAddress(9));
  tracer.on_handoff_started(at_ms(2), mh, MssId(0), MssId(1));
  tracer.on_handoff_completed(at_ms(3), mh, MssId(0), MssId(1),
                              Duration::millis(1), 44);
  tracer.on_result_delivered(at_ms(4), mh, request, 1, true, false, 1);
  tracer.on_request_completed(at_ms(5), mh, request);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '\n');
  EXPECT_NE(out.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);  // complete span
  EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);  // instant
  EXPECT_NE(out.find("\"ph\": \"M\""), std::string::npos);  // metadata
  // Braces balance (cheap well-formedness check without a JSON parser).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

// --- invariant auditor: each rule in isolation -----------------------------

struct AuditorDriver {
  InvariantAuditor auditor;
  const MhId mh{0};
  const RequestId request{MhId(0), 1};

  explicit AuditorDriver(InvariantAuditor::Config config = {})
      : auditor(strip_fatal(config)) {}

  // These drivers trip rules on purpose; never abort under RDP_AUDIT_FATAL.
  static InvariantAuditor::Config strip_fatal(InvariantAuditor::Config c) {
    c.honor_fatal_env = false;
    return c;
  }

  // The minimal legal prefix: issue and land at a proxy on Mss0.
  void issue() {
    auditor.on_request_issued(at_ms(1), mh, request, NodeAddress(9));
    auditor.on_proxy_created(at_ms(2), mh, NodeAddress(0), ProxyId(0));
    auditor.on_request_reached_proxy(at_ms(2), mh, request, NodeAddress(0));
  }
};

TEST(InvariantAuditor, R1TwoLiveProxiesPerMh) {
  AuditorDriver driver;
  driver.auditor.on_proxy_created(at_ms(1), driver.mh, NodeAddress(0),
                                  ProxyId(0));
  driver.auditor.on_proxy_created(at_ms(2), driver.mh, NodeAddress(1),
                                  ProxyId(1));
  ASSERT_EQ(driver.auditor.violations().size(), 1u);
  EXPECT_NE(driver.auditor.violations()[0].find("R1"), std::string::npos);

  // Allowed under the re-issue extension's coexistence window.
  AuditorDriver relaxed({.allow_proxy_coexistence = true});
  relaxed.auditor.on_proxy_created(at_ms(1), relaxed.mh, NodeAddress(0),
                                   ProxyId(0));
  relaxed.auditor.on_proxy_created(at_ms(2), relaxed.mh, NodeAddress(1),
                                   ProxyId(1));
  EXPECT_TRUE(relaxed.auditor.clean());
}

TEST(InvariantAuditor, R1ProxyDeletionReopensTheSlot) {
  AuditorDriver driver;
  driver.auditor.on_proxy_created(at_ms(1), driver.mh, NodeAddress(0),
                                  ProxyId(0));
  driver.auditor.on_proxy_deleted(at_ms(2), driver.mh, NodeAddress(0),
                                  ProxyId(0), false);
  driver.auditor.on_proxy_created(at_ms(3), driver.mh, NodeAddress(1),
                                  ProxyId(1));
  EXPECT_TRUE(driver.auditor.clean());
}

TEST(InvariantAuditor, R1ClosingProxyDoesNotCountAsLive) {
  // The del-proxy ack precedes on_proxy_deleted by one wire latency; a new
  // proxy created inside that window is the ping-pong revisit pattern, not
  // coexistence.
  AuditorDriver driver;
  driver.issue();
  driver.auditor.on_result_at_proxy(at_ms(3), driver.mh, driver.request, 1);
  driver.auditor.on_result_delivered(at_ms(4), driver.mh, driver.request, 1,
                                     true, false, 1);
  driver.auditor.on_request_completed(at_ms(4), driver.mh, driver.request);
  driver.auditor.on_ack_forwarded(at_ms(5), driver.mh, driver.request, 1,
                                  /*del_proxy=*/true);
  driver.auditor.on_proxy_created(at_ms(6), driver.mh, NodeAddress(1),
                                  ProxyId(1));  // before the teardown lands
  driver.auditor.on_proxy_deleted(at_ms(7), driver.mh, NodeAddress(0),
                                  ProxyId(0), false);
  EXPECT_TRUE(driver.auditor.clean());

  // A plain (non-del-proxy) ack opens no such window.
  AuditorDriver strict;
  strict.issue();
  strict.auditor.on_ack_forwarded(at_ms(5), strict.mh, strict.request, 1,
                                  /*del_proxy=*/false);
  strict.auditor.on_proxy_created(at_ms(6), strict.mh, NodeAddress(1),
                                  ProxyId(1));
  ASSERT_EQ(strict.auditor.violations().size(), 1u);
  EXPECT_NE(strict.auditor.violations()[0].find("R1"), std::string::npos);
}

TEST(InvariantAuditor, R1ClosingDeletionKeepsNewerProxyAtSameHost) {
  // A proxy is identified by its host *and* its id there: deleting the
  // closing Proxy1 at Node0 must not also forget the live Proxy2 that a
  // revisit created at the same Mss.
  AuditorDriver driver;
  driver.auditor.on_proxy_created(at_ms(1), driver.mh, NodeAddress(0),
                                  ProxyId(1));
  driver.auditor.on_ack_forwarded(at_ms(2), driver.mh, driver.request, 1,
                                  /*del_proxy=*/true);
  driver.auditor.on_proxy_created(at_ms(3), driver.mh, NodeAddress(0),
                                  ProxyId(2));
  driver.auditor.on_proxy_deleted(at_ms(4), driver.mh, NodeAddress(0),
                                  ProxyId(1), false);
  EXPECT_TRUE(driver.auditor.clean());
  driver.auditor.on_proxy_created(at_ms(5), driver.mh, NodeAddress(1),
                                  ProxyId(3));
  EXPECT_EQ(driver.auditor.violations(),
            std::vector<std::string>{"t=5.000ms R1 Mh0 has 2 live proxies "
                                     "after Proxy3 created at Node1"});
}

TEST(InvariantAuditor, R2DeliveryWithoutIssue) {
  AuditorDriver driver;
  driver.auditor.on_result_delivered(at_ms(1), driver.mh, driver.request, 1,
                                     true, false, 1);
  ASSERT_EQ(driver.auditor.violations().size(), 1u);
  EXPECT_NE(driver.auditor.violations()[0].find("R2"), std::string::npos);
}

TEST(InvariantAuditor, R3SequenceRegression) {
  AuditorDriver driver;
  driver.issue();
  driver.auditor.on_result_at_proxy(at_ms(3), driver.mh, driver.request, 2);
  driver.auditor.on_result_at_proxy(at_ms(4), driver.mh, driver.request, 1);
  ASSERT_EQ(driver.auditor.violations().size(), 1u);
  EXPECT_NE(driver.auditor.violations()[0].find("R3"), std::string::npos);

  AuditorDriver relaxed({.allow_result_reordering = true});
  relaxed.issue();
  relaxed.auditor.on_result_at_proxy(at_ms(3), relaxed.mh, relaxed.request, 2);
  relaxed.auditor.on_result_at_proxy(at_ms(4), relaxed.mh, relaxed.request, 1);
  EXPECT_TRUE(relaxed.auditor.clean());
}

TEST(InvariantAuditor, R4DelProxyWithPendingRequest) {
  AuditorDriver driver;
  driver.issue();
  driver.auditor.on_proxy_deleted(at_ms(3), driver.mh, NodeAddress(0),
                                  ProxyId(0), /*via_gc=*/false);
  ASSERT_EQ(driver.auditor.violations().size(), 1u);
  EXPECT_NE(driver.auditor.violations()[0].find("R4"), std::string::npos);

  // R4 blames per proxy: tearing down a *drained* incarnation while the
  // request is pending at another host is fine.
  AuditorDriver other({.allow_proxy_coexistence = true});
  other.issue();  // pending at NodeAddress(0)
  other.auditor.on_proxy_created(at_ms(3), other.mh, NodeAddress(1),
                                 ProxyId(1));
  other.auditor.on_proxy_deleted(at_ms(4), other.mh, NodeAddress(1),
                                 ProxyId(1), /*via_gc=*/false);
  EXPECT_TRUE(other.auditor.clean());
}

TEST(InvariantAuditor, R4GcOfLostRequestsIsExempt) {
  AuditorDriver driver;
  driver.issue();
  // The GC path reports the pending request lost before deleting.
  driver.auditor.on_request_lost(at_ms(3), driver.mh, driver.request,
                                 core::RequestLossReason::kMhLeft);
  driver.auditor.on_proxy_deleted(at_ms(3), driver.mh, NodeAddress(0),
                                  ProxyId(0), /*via_gc=*/true);
  EXPECT_TRUE(driver.auditor.clean());
}

TEST(InvariantAuditor, R5DoubleFinalDelivery) {
  AuditorDriver driver;
  driver.issue();
  driver.auditor.on_result_delivered(at_ms(3), driver.mh, driver.request, 1,
                                     true, /*app_duplicate=*/false, 1);
  // A wire duplicate absorbed by the assumption-5 filter is fine...
  driver.auditor.on_result_delivered(at_ms(4), driver.mh, driver.request, 1,
                                     true, /*app_duplicate=*/true, 2);
  EXPECT_TRUE(driver.auditor.clean());
  // ...but a second non-duplicate final delivery is exactly-once broken.
  driver.auditor.on_result_delivered(at_ms(5), driver.mh, driver.request, 1,
                                     true, /*app_duplicate=*/false, 3);
  ASSERT_EQ(driver.auditor.violations().size(), 1u);
  EXPECT_NE(driver.auditor.violations()[0].find("R5"), std::string::npos);
}

TEST(InvariantAuditor, R6CompletionBeforeDelivery) {
  AuditorDriver driver;
  driver.issue();
  driver.auditor.on_request_completed(at_ms(3), driver.mh, driver.request);
  ASSERT_EQ(driver.auditor.violations().size(), 1u);
  EXPECT_NE(driver.auditor.violations()[0].find("R6"), std::string::npos);
}

TEST(InvariantAuditor, LossIsAccountingNotViolation) {
  AuditorDriver driver;
  driver.issue();
  driver.auditor.on_request_lost(at_ms(3), driver.mh, driver.request,
                                 core::RequestLossReason::kMssCrashed);
  EXPECT_TRUE(driver.auditor.clean());
  EXPECT_EQ(driver.auditor.lost(), 1u);
  EXPECT_TRUE(driver.auditor.check_quiesced());  // books balance: 1 = 0 + 1
}

TEST(InvariantAuditor, CheckQuiescedFlagsStragglers) {
  AuditorDriver driver;
  driver.issue();  // never delivered, never lost
  EXPECT_TRUE(driver.auditor.clean());
  EXPECT_FALSE(driver.auditor.check_quiesced());
  ASSERT_FALSE(driver.auditor.violations().empty());
  EXPECT_NE(driver.auditor.violations()[0].find("quiesce"), std::string::npos);
}

TEST(InvariantAuditor, ViolationDumpsFlightRecorder) {
  FlightRecorder recorder(8);
  InvariantAuditor auditor({.honor_fatal_env = false});
  auditor.set_flight_recorder(&recorder);
  recorder.record(at_ms(1), "context line before the bug");

  testing::internal::CaptureStderr();
  auditor.on_result_delivered(at_ms(2), MhId(0), RequestId(MhId(0), 1), 1,
                              true, false, 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("context line before the bug"), std::string::npos);
  EXPECT_FALSE(auditor.clean());
}

TEST(InvariantAuditor, RelaxWidensButNeverNarrows) {
  InvariantAuditor auditor({.allow_proxy_coexistence = true});
  auditor.relax({.allow_result_reordering = true});
  EXPECT_TRUE(auditor.config().allow_proxy_coexistence);
  EXPECT_TRUE(auditor.config().allow_result_reordering);
  auditor.relax({});  // no-op, nothing is switched back off
  EXPECT_TRUE(auditor.config().allow_proxy_coexistence);
}

// One scripted stream trips every rule; the whole report (text and order)
// and the issued/finished/lost counts are pinned.
TEST(InvariantAuditor, ScriptedReportIsPinned) {
  core::Directory directory;
  for (std::uint32_t i = 1; i <= 7; ++i) {
    directory.register_mss(MssId(i), common::CellId(i), NodeAddress(20 + i));
  }
  InvariantAuditor auditor({.honor_fatal_env = false}, &directory);
  const MhId a(3);
  const MhId b(1);
  const MhId stranger(9);  // never issues anything
  const NodeAddress x(10);
  const NodeAddress y(13);
  std::int64_t ms = 0;
  auto now = [&ms] { return at_ms(++ms); };

  // t=1-5: R1 on creation and on restore; GC'd deletions leave Proxy0.
  auditor.on_proxy_created(now(), a, x, ProxyId(0));
  auditor.on_proxy_created(now(), a, NodeAddress(11), ProxyId(1));
  auditor.on_proxy_restored(now(), a, NodeAddress(12), ProxyId(2));
  auditor.on_proxy_deleted(now(), a, NodeAddress(11), ProxyId(1), true);
  auditor.on_proxy_deleted(now(), a, NodeAddress(12), ProxyId(2), true);

  // t=6-9: R2 from each of its four hooks.
  const RequestId ghost(stranger, 1);
  auditor.on_request_reached_proxy(now(), stranger, ghost, x);
  auditor.on_result_at_proxy(now(), stranger, ghost, 2);
  auditor.on_result_delivered(now(), stranger, ghost, 3, true, false, 1);
  auditor.on_request_completed(now(), stranger, ghost);

  // t=10-17: issues across two Mhs, out of RequestId order, plus a re-issue
  // that keeps the original book.
  for (const RequestId r : {RequestId(a, 5), RequestId(b, 4), RequestId(a, 3),
                            RequestId(a, 1), RequestId(a, 2), RequestId(a, 6),
                            RequestId(b, 2), RequestId(a, 5)}) {
    auditor.on_request_issued(now(), r.mh(), r, x);
  }
  // t=18-19: a loss reported for a request never issued is counted, and
  // its later issue then is not.
  auditor.on_request_lost(now(), stranger, RequestId(stranger, 7),
                          core::RequestLossReason::kMhLeft);
  auditor.on_request_issued(now(), stranger, RequestId(stranger, 7), x);

  // t=20-26: R3 and R5 on a request that then completes.
  const RequestId done(a, 5);
  auditor.on_request_reached_proxy(now(), a, done, x);
  auditor.on_result_at_proxy(now(), a, done, 2);
  auditor.on_result_at_proxy(now(), a, done, 1);
  auditor.on_result_delivered(now(), a, done, 2, true, false, 1);
  auditor.on_result_delivered(now(), a, done, 2, true, true, 2);
  auditor.on_result_delivered(now(), a, done, 2, true, false, 3);
  auditor.on_request_completed(now(), a, done);

  // t=27-28: R6.
  auditor.on_request_reached_proxy(now(), a, RequestId(a, 6), x);
  auditor.on_request_completed(now(), a, RequestId(a, 6));

  // t=29-38: R4.  #3 then #1 reach Proxy0 at x and stay open; #8 reaches x
  // but is lost; after the del-proxy ack closes Proxy0, #2 reaches Proxy3
  // at y.  Deleting Proxy0 blames #1 and #3, in that order.
  auditor.on_request_reached_proxy(now(), a, RequestId(a, 3), x);
  auditor.on_request_reached_proxy(now(), a, RequestId(a, 1), x);
  auditor.on_request_issued(now(), a, RequestId(a, 8), x);
  auditor.on_request_reached_proxy(now(), a, RequestId(a, 8), x);
  auditor.on_request_lost(now(), a, RequestId(a, 8),
                          core::RequestLossReason::kProxyGone);
  auditor.on_ack_forwarded(now(), a, done, 2, /*del_proxy=*/true);
  auditor.on_proxy_created(now(), a, y, ProxyId(3));
  auditor.on_request_reached_proxy(now(), a, RequestId(a, 2), y);
  auditor.on_delproxy_with_pending(now(), a, ProxyId(0));
  auditor.on_proxy_deleted(now(), a, x, ProxyId(0), /*via_gc=*/false);

  // t=39-49: both A1 branches, across two epochs, and A2.
  auditor.on_arq_delivered(now(), a, 0, 0, false);
  auditor.on_arq_delivered(now(), a, 0, 1, false);
  auditor.on_arq_delivered(now(), a, 0, 3, false);
  auditor.on_arq_delivered(now(), a, 0, 1, false);
  auditor.on_arq_delivered(now(), a, 0, 0, /*duplicate=*/true);
  auditor.on_arq_delivered(now(), a, 1, 0, false);
  auditor.on_arq_delivered(now(), a, 0, 4, false);
  auditor.on_arq_delivered(now(), a, 1, 2, false);
  auditor.on_arq_delivered(now(), b, 0, 0, false);
  auditor.on_arq_frame_sent(now(), a, 1, 5, /*attempt=*/1, 9, 8);
  auditor.on_arq_frame_sent(now(), a, 1, 6, /*attempt=*/2, 9, 8);

  // t=50-64: both R7 branches.  A promotion clears the primary's host from
  // the proxy books, and so does a crash.
  auditor.on_proxy_created(now(), b, NodeAddress(21), ProxyId(5));
  auditor.on_backup_promoted(now(), MssId(1), MssId(2), 1);
  auditor.on_proxy_created(now(), b, NodeAddress(23), ProxyId(6));
  auditor.on_mss_crashed(now(), MssId(1), 0, 0);
  auditor.on_backup_promoted(now(), MssId(1), MssId(3), 0);
  auditor.on_mss_crashed(now(), MssId(3), 1, 0);
  auditor.on_proxy_created(now(), b, NodeAddress(24), ProxyId(7));
  auditor.on_backup_promoted(now(), MssId(1), MssId(4), 0);
  auditor.on_mss_departed(now(), MssId(5), 1);
  auditor.on_backup_promoted(now(), MssId(5), MssId(6), 0);
  auditor.on_mss_rejoined(now(), MssId(5), 2);
  auditor.on_backup_promoted(now(), MssId(5), MssId(7), 0);
  auditor.on_mss_restarted(now(), MssId(1), 0);
  auditor.on_mss_restarted(now(), MssId(3), 0);
  auditor.on_proxy_created(now(), b, NodeAddress(30), ProxyId(8));

  EXPECT_FALSE(auditor.check_quiesced());
  const std::vector<std::string> expected = {
      "t=2.000ms R1 Mh3 has 2 live proxies after Proxy1 created at Node11",
      "t=3.000ms R1 Mh3 has 3 live proxies after Proxy2 restored at Node12",
      "t=6.000ms R2 Req(Mh9#1) reached a proxy but was never issued",
      "t=7.000ms R2 result (seq 2) at proxy for Req(Mh9#1) which was never "
      "issued",
      "t=8.000ms R2 result (seq 3) delivered to Mh9 for Req(Mh9#1) which was "
      "never issued",
      "t=9.000ms R2 Req(Mh9#1) completed but was never issued",
      "t=22.000ms R3 Req(Mh3#5) result seq 1 at proxy after seq 2",
      "t=25.000ms R5 Req(Mh3#5) final result delivered twice without the "
      "duplicate filter tripping (seq 2)",
      "t=28.000ms R6 Req(Mh3#6) completed at the proxy before any delivery "
      "to the Mh",
      "t=38.000ms R4 Proxy0 deleted while Req(Mh3#1) still pending",
      "t=38.000ms R4 Proxy0 deleted while Req(Mh3#3) still pending",
      "t=41.000ms A1 Mh3 arq epoch 0 delivered seq 3 but expected 2",
      "t=42.000ms A1 Mh3 arq epoch 0 re-delivered seq 1 below frontier 4",
      "t=46.000ms A1 Mh3 arq epoch 1 delivered seq 2 but expected 1",
      "t=48.000ms A2 Mh3 arq epoch 1 seq 5 admitted with 9 in flight > "
      "window 8",
      "t=51.000ms R7 Mss2 promoted live primary Mss1",
      "t=54.000ms R7 Mss3 promoted Mss1 while promoter Mss2 is still live",
      "t=61.000ms R7 Mss7 promoted live primary Mss5",
      "t=64.000ms R1 Mh1 has 2 live proxies after Proxy8 created at Node30",
      "quiesce: Req(Mh1#2) neither delivered nor lost",
      "quiesce: Req(Mh1#4) neither delivered nor lost",
      "quiesce: Req(Mh3#1) neither delivered nor lost",
      "quiesce: Req(Mh3#2) neither delivered nor lost",
      "quiesce: Req(Mh3#3) neither delivered nor lost",
      "quiesce: Req(Mh3#6) neither delivered nor lost",
  };
  EXPECT_EQ(auditor.violations(), expected);
  EXPECT_EQ(auditor.issued(), 8u);
  EXPECT_EQ(auditor.finished(), 1u);
  EXPECT_EQ(auditor.lost(), 2u);
}

// --- end-to-end: the harness wiring ----------------------------------------

TEST(Telemetry, CleanRunAuditsCleanAndBalances) {
  auto config = testutil::deterministic_config(3, 1, 1);
  config.cost.enabled = true;
  harness::World world(config);
  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    mh.issue_request(world.server_address(0), "q");
  });
  world.simulator().schedule(Duration::millis(150), [&] {
    mh.migrate(world.cell(1), Duration::millis(50));
  });
  world.run_to_quiescence();

  auto* auditor = world.telemetry().auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_TRUE(auditor->clean());
  EXPECT_TRUE(auditor->check_quiesced());
  EXPECT_EQ(auditor->issued(), 1u);
  EXPECT_EQ(auditor->finished(), 1u);

  // The flight recorder saw the whole exchange.
  ASSERT_NE(world.telemetry().flight_recorder(), nullptr);
  EXPECT_GT(world.telemetry().flight_recorder()->total_recorded(), 5u);
  // The ledger's per-type wired message counts are populated and account
  // for every wired send.
  std::uint64_t wired_by_type = 0;
  for (const auto& [type, count] :
       world.cost_ledger()->wired_message_counts()) {
    wired_by_type += count;
  }
  EXPECT_GT(wired_by_type, 0u);
  EXPECT_EQ(wired_by_type, world.wired().messages_sent());
}

TEST(Telemetry, MetricsCollectorMirrorsIntoRegistry) {
  auto config = testutil::deterministic_config(2, 1, 1);
  harness::World world(config);
  harness::MetricsCollector metrics(&world.telemetry().registry());
  world.observers().add(&metrics);

  world.mh(0).power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    world.mh(0).issue_request(world.server_address(0), "q");
  });
  world.run_to_quiescence();

  auto& registry = world.telemetry().registry();
  EXPECT_EQ(registry.counter_value("rdp.requests.issued"), 1u);
  EXPECT_EQ(registry.counter_value("rdp.requests.completed"), 1u);
  EXPECT_EQ(registry.counter_value("rdp.results.delivered"), 1u);
  EXPECT_EQ(metrics.requests_issued, 1u);  // the struct fields still work
}

// A deliberately ablated world must trip a strict auditor: crash the
// proxy-holding Mss with checkpointing off and the re-issue watchdog on.
// The re-issued request creates a second proxy while the doomed survivor
// at another host is still live — exactly the R1 coexistence the full
// protocol forbids.  The world's own auditor is relaxed by the harness +
// fault injector and must stay clean on the same run.
TEST(Telemetry, StrictAuditorTripsOnAblatedRun) {
  auto config = testutil::deterministic_config(3, 1, 1);
  config.rdp.mh_reissue = true;
  config.rdp.reissue_timeout = Duration::seconds(2);
  // Slow server: the request is still pending at the proxy when the
  // pref-holding Mss fail-stops.
  config.server.base_service_time = Duration::seconds(3);
  harness::World world(config);

  InvariantAuditor strict({.honor_fatal_env = false}, &world.directory());
  world.observers().add(&strict);

  fault::FaultPlan plan;
  // The Mh issues at Mss0 (proxy there) then migrates to Mss1, which takes
  // over the pref; crashing Mss1 orphans the proxy at Mss0 and triggers a
  // re-issue that creates a second proxy.
  plan.crash_at(1, Duration::millis(700));
  fault::FaultInjector injector(world, plan);
  injector.arm();

  world.mh(0).power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    world.mh(0).issue_request(world.server_address(0), "q");
  });
  world.simulator().schedule(Duration::millis(300), [&] {
    world.mh(0).migrate(world.cell(1), Duration::millis(50));
  });
  world.simulator().schedule(Duration::seconds(4), [&] {
    world.mh(0).migrate(world.cell(2), Duration::millis(50));
  });
  world.run_to_quiescence();

  EXPECT_FALSE(strict.clean());
  bool saw_r1 = false;
  for (const auto& violation : strict.violations()) {
    if (violation.find("R1") != std::string::npos) saw_r1 = true;
  }
  if (!saw_r1) {
    std::ostringstream debug;
    strict.write_report(debug);
    world.telemetry().flight_recorder()->dump(debug);
    ADD_FAILURE() << "expected an R1 coexistence violation\n" << debug.str();
  }

  // The production auditor ran the same events with the derived allowances
  // (mh_reissue => coexistence + reordering) and stays clean.
  ASSERT_NE(world.telemetry().auditor(), nullptr);
  EXPECT_TRUE(world.telemetry().auditor()->clean());
}

TEST(Telemetry, TraceConfigEnablesTracerInWorld) {
  auto config = testutil::deterministic_config(2, 1, 1);
  EXPECT_EQ(config.telemetry.trace, false);  // off by default
  config.telemetry.trace = true;
  config.telemetry.metrics_period = Duration::millis(50);
  config.cost.enabled = true;  // its rdp.cost.* series are what gets sampled
  harness::World world(config);

  world.mh(0).power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    world.mh(0).issue_request(world.server_address(0), "q");
  });
  world.run_to_quiescence();

  auto* tracer = world.telemetry().tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_FALSE(tracer->spans().empty());
  std::ostringstream timeline;
  tracer->write_timeline(timeline);
  EXPECT_NE(timeline.str().find("result delivered"), std::string::npos);
  // The event tap drove periodic registry samples on the sim clock.
  EXPECT_FALSE(world.telemetry().registry().samples().empty());
}

// --- instrumentation profiler (PROTOCOL.md §13) ----------------------------

// Deterministic tick source: every read returns the value a test last
// stored, so probe arithmetic is exact (ns_per_tick() is 1.0 under a fake).
std::uint64_t g_fake_tick = 0;
std::uint64_t fake_tick() { return g_fake_tick; }

struct ScopedFakeTicks {
  ScopedFakeTicks() {
    g_fake_tick = 0;
    prof::set_tick_source(&fake_tick);
  }
  ~ScopedFakeTicks() { prof::set_tick_source(nullptr); }
};

TEST(ProfilerTest, SelfVsInclusiveRollupArithmetic) {
  ScopedFakeTicks ticks;
  Profiler profiler;
  prof::Accumulator* prev = prof::exchange_accumulator(profiler.accumulator(0));
  {
    prof::ScopedProbe kernel(prof::domain_id(prof::Domain::kKernel));  // t=0
    g_fake_tick = 10;
    {
      prof::ScopedProbe wired(prof::domain_id(prof::Domain::kNetWired));
      g_fake_tick = 30;  // wired inclusive: 30 - 10 = 20
    }
    g_fake_tick = 100;  // kernel inclusive: 100 - 0 = 100
  }
  (void)prof::exchange_accumulator(prev);

  const ProfileReport report = profiler.report();
  ASSERT_EQ(report.domains.size(), 2u);
  // Sorted by self time descending: kernel self = 100 - 20 = 80.
  EXPECT_EQ(report.domains[0].name, "kernel");
  EXPECT_EQ(report.domains[0].self_ns, 80u);
  EXPECT_EQ(report.domains[0].incl_ns, 100u);
  EXPECT_EQ(report.domains[0].count, 1u);
  EXPECT_EQ(report.domains[1].name, "net.wired");
  EXPECT_EQ(report.domains[1].self_ns, 20u);
  EXPECT_EQ(report.domains[1].incl_ns, 20u);
  EXPECT_EQ(report.total_self_ns, 100u);
  EXPECT_EQ(report.top10_share, 1.0);
}

TEST(ProfilerTest, MergeAggregatesAcrossShardTreesAndPaths) {
  ScopedFakeTicks ticks;
  Profiler profiler;

  // Shard 0: kernel -> net.wired (10 inside a 30 scope), twice.
  prof::Accumulator* prev = prof::exchange_accumulator(profiler.accumulator(0));
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t base = g_fake_tick;
    prof::ScopedProbe kernel(prof::domain_id(prof::Domain::kKernel));
    g_fake_tick = base + 5;
    {
      prof::ScopedProbe wired(prof::domain_id(prof::Domain::kNetWired));
      g_fake_tick = base + 15;
    }
    g_fake_tick = base + 30;
  }
  // Shard 1: net.wired at a *different path* (top level, no kernel parent);
  // the per-domain rollup must still fold it into the same row.
  (void)prof::exchange_accumulator(profiler.accumulator(1));
  {
    const std::uint64_t base = g_fake_tick;
    prof::ScopedProbe wired(prof::domain_id(prof::Domain::kNetWired));
    g_fake_tick = base + 7;
  }
  (void)prof::exchange_accumulator(prev);

  const ProfileReport report = profiler.report();
  ASSERT_EQ(report.domains.size(), 2u);
  // kernel: 2 scopes of 30 with 10 of child time each -> self 40, incl 60.
  EXPECT_EQ(report.domains[0].name, "kernel");
  EXPECT_EQ(report.domains[0].self_ns, 40u);
  EXPECT_EQ(report.domains[0].incl_ns, 60u);
  EXPECT_EQ(report.domains[0].count, 2u);
  // net.wired: 2x10 under kernel + 7 top-level = 27 self, 3 visits.
  EXPECT_EQ(report.domains[1].name, "net.wired");
  EXPECT_EQ(report.domains[1].self_ns, 27u);
  EXPECT_EQ(report.domains[1].incl_ns, 27u);
  EXPECT_EQ(report.domains[1].count, 3u);
  EXPECT_EQ(report.total_self_ns, 67u);  // 40 kernel + 27 net.wired
}

TEST(ProfilerTest, HookDomainsAreNamedAfterTheirHook) {
  EXPECT_EQ(Profiler::domain_label(prof::hook_domain(6)),
            "hook:result_delivered");
  EXPECT_EQ(Profiler::domain_label(prof::domain_id(prof::Domain::kKernel)),
            "kernel");
  EXPECT_EQ(
      Profiler::domain_label(prof::domain_id(prof::Domain::kBarrierWait)),
      "barrier_wait");
}

TEST(ProfilerTest, FoldedExportWritesPathsAndFailsOnUnwritablePath) {
  ScopedFakeTicks ticks;
  Profiler profiler;
  prof::Accumulator* prev = prof::exchange_accumulator(profiler.accumulator(0));
  {
    prof::ScopedProbe kernel(prof::domain_id(prof::Domain::kKernel));
    g_fake_tick = 10;
    {
      prof::ScopedProbe causal(prof::domain_id(prof::Domain::kCausal));
      g_fake_tick = 16;
    }
    g_fake_tick = 25;
  }
  (void)prof::exchange_accumulator(prev);

  EXPECT_FALSE(profiler.write_folded("/nonexistent_rdp_dir/prof.folded"));

  const std::string path = ::testing::TempDir() + "/prof.folded";
  ASSERT_TRUE(profiler.write_folded(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string folded = buffer.str();
  EXPECT_NE(folded.find("rdp;kernel 19\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("rdp;kernel;causal 6\n"), std::string::npos) << folded;
  std::remove(path.c_str());
}

TEST(ProfilerTest, MetricsExportCarriesProfTablesAndErrorPath) {
  ScopedFakeTicks ticks;
  Profiler profiler;
  prof::Accumulator* prev = prof::exchange_accumulator(profiler.accumulator(0));
  {
    prof::ScopedProbe kernel(prof::domain_id(prof::Domain::kKernel));
    g_fake_tick = 42;
  }
  (void)prof::exchange_accumulator(prev);

  Telemetry telemetry{TelemetryConfig{}};
  profiler.export_metrics(telemetry.registry());
  EXPECT_EQ(
      telemetry.registry().gauge("rdp.prof.self_ns", {{"domain", "kernel"}})
          .value(),
      42.0);

  // The rdp.prof.* tables ride the existing export paths — including the
  // error-path contract: an unwritable path returns false, a writable one
  // contains the attribution rows.  The CSV carries sampled values, so
  // close the series first, exactly like the harness export does.
  telemetry.registry().sample_now(SimTime::zero());
  EXPECT_FALSE(
      telemetry.write_metrics_csv("/nonexistent_rdp_dir/metrics.csv"));
  EXPECT_FALSE(
      telemetry.write_metrics_json("/nonexistent_rdp_dir/metrics.json"));
  const std::string path = ::testing::TempDir() + "/prof_metrics.csv";
  ASSERT_TRUE(telemetry.write_metrics_csv(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("rdp.prof.self_ns"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdp::obs
