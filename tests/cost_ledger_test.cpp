// Tests for the wire-level cost ledger (E12): byte-for-byte reconciliation
// against the transports' own counters on a scripted Fig-3 run, purpose
// classification of hand-off and re-issue traffic, the per-Mh energy
// model, replication's wired-only recovery footprint, the baseline MIP
// tunnel class, and failure handling on the telemetry export paths.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/messages.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/sharded_world.h"
#include "harness/world.h"
#include "obs/cost_ledger.h"
#include "obs/telemetry.h"

namespace rdp {
namespace {

using common::Duration;
using common::MhId;
using common::MssId;
using obs::LinkKind;
using obs::PurposeClass;

// Fig-3 topology with deterministic latencies and the ledger switched on.
// causal_order=false keeps wired payloads unwrapped so per-message sizes
// are the plain codec wire_size values.
harness::ScenarioConfig scripted_config() {
  harness::ScenarioConfig config;
  config.num_mss = 3;
  config.num_mh = 1;
  config.num_servers = 1;
  config.causal_order = false;
  config.wired.base_latency = Duration::millis(5);
  config.wired.jitter = Duration::zero();
  config.wireless.base_latency = Duration::millis(20);
  config.wireless.jitter = Duration::zero();
  config.server.base_service_time = Duration::seconds(2);
  config.cost.enabled = true;
  config.cost.energy.tx_per_byte = 2.0;
  config.cost.energy.rx_per_byte = 1.0;
  config.cost.energy.budget = 10000.0;
  return config;
}

// The scripted Fig-3 timeline: power on, one request, two migrations.
void run_scripted_fig3(harness::World& world) {
  auto& mh = world.mh(0);
  auto& sim = world.simulator();
  mh.power_on(world.cell(0));
  sim.schedule(Duration::millis(100),
               [&] { mh.issue_request(world.server_address(0), "query"); });
  sim.schedule(Duration::millis(300),
               [&] { mh.migrate(world.cell(1), Duration::millis(50)); });
  sim.schedule(Duration::millis(800),
               [&] { mh.migrate(world.cell(2), Duration::millis(50)); });
  world.run_to_quiescence();
}

bool row_empty(const obs::CostSummary& summary, PurposeClass purpose) {
  const auto& row = summary.row(purpose);
  return row.wired_frames == 0 && row.wireless_frames == 0;
}

// The scripted Fig-3 run (one request, two migrations): every byte the
// ledger reports must equal the transports' own wire_size() tallies, with
// no traffic left unclassified, hand-off signaling attributed exactly, and
// energy equal to the configured per-byte rates applied to offered uplink
// and *delivered* downlink bytes.
TEST(CostLedger, ScriptedFig3RunReconcilesByteForByte) {
  harness::World world(scripted_config());
  ASSERT_NE(world.cost_ledger(), nullptr);

  // Independent tallies straight from the seams the ledger taps, so the
  // comparison does not share the ledger's own accounting code.
  std::uint64_t wired_sum = 0;
  std::uint64_t uplink_sum = 0, downlink_sum = 0, downlink_delivered = 0;
  std::uint64_t app_up = 0, app_down = 0;
  world.wired().add_send_observer(
      [&](const net::Envelope& envelope) { wired_sum += envelope.payload->wire_size(); });
  world.wireless().add_frame_observer(
      [&](MhId, const net::PayloadPtr& payload, bool uplink,
          net::FramePhase phase) {
        const std::string name = payload->name();
        if (phase == net::FramePhase::kSent) {
          (uplink ? uplink_sum : downlink_sum) += payload->wire_size();
          if (name == "request") app_up += payload->wire_size();
          if (name == "result") app_down += payload->wire_size();
        } else if (!uplink) {
          downlink_delivered += payload->wire_size();
        }
      });

  run_scripted_fig3(world);

  const obs::CostLedger& ledger = *world.cost_ledger();

  // Byte-for-byte reconciliation with both transports' counters and with
  // the independent wire_size sums.
  EXPECT_EQ(ledger.wired_bytes(), world.wired().bytes_sent());
  EXPECT_EQ(ledger.wired_bytes(), wired_sum);
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp), world.wireless().uplink_bytes());
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp), uplink_sum);
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessDown),
            world.wireless().downlink_bytes());
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessDown), downlink_sum);

  const obs::CostSummary summary = ledger.summary();
  EXPECT_EQ(summary.wired_bytes, ledger.wired_bytes());
  EXPECT_EQ(summary.wireless_bytes, ledger.wireless_bytes());

  // Class rows partition the totals.
  std::uint64_t wired_rows = 0, wireless_rows = 0;
  for (const auto& row : summary.by_class) {
    wired_rows += row.wired_bytes;
    wireless_rows += row.wireless_bytes;
  }
  EXPECT_EQ(wired_rows, summary.wired_bytes);
  EXPECT_EQ(wireless_rows, summary.wireless_bytes);

  // A pure RDP run has no unclassified traffic, no tunneling, and (fault
  // free) no recovery traffic.
  EXPECT_TRUE(row_empty(summary, PurposeClass::kOther));
  EXPECT_TRUE(row_empty(summary, PurposeClass::kTunnel));
  EXPECT_TRUE(row_empty(summary, PurposeClass::kRecovery));

  // Hand-off signaling over the air is exactly the two greet frames.
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp, PurposeClass::kHandoff),
            2 * core::MsgGreet(MssId(0)).wire_size());
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessDown, PurposeClass::kHandoff), 0u);
  // The wired side of the two hand-offs (dereg/deregAck/update_currentLoc
  // and the pref transfer) is all attributed to the hand-off class.
  EXPECT_GT(summary.row(PurposeClass::kHandoff).wired_bytes, 0u);

  // Application payload over the air is exactly the request + result
  // frames the channel saw.
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp, PurposeClass::kApp), app_up);
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessDown, PurposeClass::kApp),
            app_down);

  // Energy: tx charged on every offered uplink byte, rx only on delivered
  // downlink bytes; one Mh, so the min-remaining gauge is budget - spent.
  const double expected_energy = 2.0 * static_cast<double>(uplink_sum) +
                                 1.0 * static_cast<double>(downlink_delivered);
  EXPECT_DOUBLE_EQ(ledger.energy_spent(MhId(0)), expected_energy);
  EXPECT_DOUBLE_EQ(ledger.energy_min_remaining(), 10000.0 - expected_energy);
  EXPECT_DOUBLE_EQ(summary.energy_total, expected_energy);

  // The registry mirrors: byte counters by class/link and energy gauges.
  auto& registry = world.telemetry().registry();
  EXPECT_EQ(registry.counter_total("rdp.cost.bytes"),
            ledger.wired_bytes() + ledger.wireless_bytes());
  EXPECT_DOUBLE_EQ(registry.gauge("rdp.energy.spent_total").value(),
                   expected_energy);
}

// Pins the ledger's exports for the scripted Fig-3 run byte for byte: the
// summary's CSV rows, the per-message table, and the registry series the
// ledger and the metrics collector create (key set, final values and the
// sampled time series).  Three more Mh ids are charged out of order
// afterwards, so per-Mh spend and the run-level energy gauges cover more
// than one Mh; the registry holds no per-Mh or per-type series.
TEST(CostLedger, ScriptedFig3ExportsArePinned) {
  harness::ScenarioConfig config = scripted_config();
  config.telemetry.metrics_period = Duration::millis(250);
  harness::World world(config);
  harness::MetricsCollector metrics(&world.telemetry().registry());
  world.observers().add(&metrics);
  run_scripted_fig3(world);

  obs::CostLedger& ledger = *world.cost_ledger();
  const net::PayloadPtr join = net::make_message<core::MsgJoin>();
  ledger.on_wireless_frame(MhId(7), join, /*uplink=*/true,
                           net::FramePhase::kSent);
  ledger.on_wireless_frame(MhId(2), join, /*uplink=*/true,
                           net::FramePhase::kSent);
  ledger.on_wireless_frame(MhId(5), join, /*uplink=*/false,
                           net::FramePhase::kDelivered);

  std::ostringstream summary;
  obs::CostSummary::csv_header(summary);
  ledger.summary().append_csv(summary, "fig3");
  EXPECT_EQ(summary.str(),
      "arm,class,wired_frames,wired_bytes,wireless_frames,wireless_bytes,"
      "wireless_share,energy\n"
      "fig3,app,3,112,2,61,0.442029,88\n"
      "fig3,control,1,26,7,59,0.427536,96\n"
      "fig3,handoff,6,120,2,18,0.130435,36\n"
      "fig3,recovery,0,0,0,0,0,0\n"
      "fig3,tunnel,0,0,0,0,0,0\n"
      "fig3,other,0,0,0,0,0,0\n"
      "fig3,total,10,258,11,138,1,220\n");
  EXPECT_DOUBLE_EQ(ledger.energy_spent(MhId(0)), 195);
  EXPECT_DOUBLE_EQ(ledger.energy_spent(MhId(1)), 0);
  EXPECT_DOUBLE_EQ(ledger.energy_spent(MhId(2)), 10);
  EXPECT_DOUBLE_EQ(ledger.energy_spent(MhId(5)), 5);
  EXPECT_DOUBLE_EQ(ledger.energy_spent(MhId(7)), 10);
  EXPECT_DOUBLE_EQ(ledger.energy_spent(MhId(8)), 0);
  EXPECT_DOUBLE_EQ(ledger.energy_min_remaining(), 9805);

  std::ostringstream table;
  ledger.message_table().print(table);
  EXPECT_EQ(table.str(),
      "| link          | class   | message           | frames | bytes |\n"
      "|---------------|---------|-------------------|--------|-------|\n"
      "| wired         | app     | resultForward     | 1      | 47    |\n"
      "| wired         | app     | serverRequest     | 1      | 31    |\n"
      "| wired         | app     | serverResult      | 1      | 34    |\n"
      "| wired         | control | ackForward        | 1      | 26    |\n"
      "| wired         | handoff | dereg             | 2      | 26    |\n"
      "| wired         | handoff | deregAck          | 2      | 60    |\n"
      "| wired         | handoff | update_currentLoc | 2      | 34    |\n"
      "| wireless_up   | app     | request           | 1      | 27    |\n"
      "| wireless_up   | control | ack               | 1      | 17    |\n"
      "| wireless_up   | control | join              | 3      | 15    |\n"
      "| wireless_up   | handoff | greet             | 2      | 18    |\n"
      "| wireless_down | app     | result            | 1      | 34    |\n"
      "| wireless_down | control | registrationAck   | 3      | 27    |\n");

  std::ostringstream registry_json;
  world.telemetry().registry().write_json(registry_json);
  EXPECT_EQ(registry_json.str(),
      "{\n"
      "  \"counters\": {\n"
      "    \"rdp.acks.forwarded\": 1,\n"
      "    \"rdp.cost.bytes{class=app,link=wired}\": 112,\n"
      "    \"rdp.cost.bytes{class=app,link=wireless_down}\": 34,\n"
      "    \"rdp.cost.bytes{class=app,link=wireless_up}\": 27,\n"
      "    \"rdp.cost.bytes{class=control,link=wired}\": 26,\n"
      "    \"rdp.cost.bytes{class=control,link=wireless_down}\": 27,\n"
      "    \"rdp.cost.bytes{class=control,link=wireless_up}\": 32,\n"
      "    \"rdp.cost.bytes{class=handoff,link=wired}\": 120,\n"
      "    \"rdp.cost.bytes{class=handoff,link=wireless_up}\": 18,\n"
      "    \"rdp.cost.frames{class=app,link=wired}\": 3,\n"
      "    \"rdp.cost.frames{class=app,link=wireless_down}\": 1,\n"
      "    \"rdp.cost.frames{class=app,link=wireless_up}\": 1,\n"
      "    \"rdp.cost.frames{class=control,link=wired}\": 1,\n"
      "    \"rdp.cost.frames{class=control,link=wireless_down}\": 3,\n"
      "    \"rdp.cost.frames{class=control,link=wireless_up}\": 4,\n"
      "    \"rdp.cost.frames{class=handoff,link=wired}\": 6,\n"
      "    \"rdp.cost.frames{class=handoff,link=wireless_up}\": 2,\n"
      "    \"rdp.handoffs{to=Mss1}\": 1,\n"
      "    \"rdp.handoffs{to=Mss2}\": 1,\n"
      "    \"rdp.proxies.created{host=Node0}\": 1,\n"
      "    \"rdp.proxies.deleted{via=handshake}\": 1,\n"
      "    \"rdp.registrations{mss=Mss0}\": 1,\n"
      "    \"rdp.registrations{mss=Mss1}\": 1,\n"
      "    \"rdp.registrations{mss=Mss2}\": 1,\n"
      "    \"rdp.requests.completed\": 1,\n"
      "    \"rdp.requests.issued\": 1,\n"
      "    \"rdp.results.delivered\": 1,\n"
      "    \"rdp.results.forwarded\": 1,\n"
      "    \"rdp.update_currentloc\": 2\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"rdp.energy.remaining_min\": 9805,\n"
      "    \"rdp.energy.spent_total\": 220\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"rdp.delivery.latency_ms\": {\"count\": 1, \"mean\": 2055, \"p50\": 2055, \"p95\": 2055, \"max\": 2055},\n"
      "    \"rdp.handoff.latency_ms\": {\"count\": 2, \"mean\": 10, \"p50\": 10, \"p95\": 10, \"max\": 10},\n"
      "    \"rdp.handoff.state_bytes\": {\"count\": 2, \"mean\": 30, \"p50\": 30, \"p95\": 30, \"max\": 30}\n"
      "  },\n"
      "  \"samples\": 165\n"
      "}\n");

  // The sampled series is long; pin its size and an FNV-1a digest.
  std::ostringstream csv;
  world.telemetry().registry().write_csv(csv);
  std::uint64_t digest = 14695981039346656037ull;
  for (const char c : csv.str()) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  EXPECT_EQ(csv.str().size(), 7283u);
  EXPECT_EQ(digest, 18012693661325172555ull);
}

// A lost uplink request makes the Mh watchdog re-issue it; the repeat
// sighting of the same RequestId on the air is recovery traffic, byte for
// byte one request frame.
TEST(CostLedger, ReissuedUplinkRequestIsRecovery) {
  harness::ScenarioConfig config = scripted_config();
  config.server.base_service_time = Duration::millis(300);
  config.rdp.mh_reissue = true;
  config.rdp.reissue_timeout = Duration::seconds(1);
  harness::World world(config);

  int dropped = 0;
  world.wireless().set_drop_filter(
      [&](MhId, const net::PayloadPtr& payload, bool uplink) {
        if (uplink && dropped == 0 &&
            std::string(payload->name()) == "request") {
          ++dropped;
          return true;
        }
        return false;
      });

  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    mh.issue_request(world.server_address(0), "query");
  });
  world.run_to_quiescence();

  const obs::CostLedger& ledger = *world.cost_ledger();
  const core::MsgUplinkRequest probe(common::RequestId(MhId(0), 1),
                                     world.server_address(0), "query", false);
  // First transmission is application traffic, the re-issue is recovery —
  // identical frames, so each row carries exactly one request (join and
  // ack frames are control-class, not app).
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp, PurposeClass::kApp),
            probe.wire_size());
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp, PurposeClass::kRecovery),
            probe.wire_size());
  EXPECT_TRUE(row_empty(ledger.summary(), PurposeClass::kOther));
}

// A lost downlink result triggers the same watchdog; the proxy's second
// forward (attempt=2) is recovery on the downlink, same size as the
// original application-class attempt.
TEST(CostLedger, RetransmittedResultIsRecovery) {
  harness::ScenarioConfig config = scripted_config();
  config.server.base_service_time = Duration::millis(300);
  config.rdp.mh_reissue = true;
  config.rdp.reissue_timeout = Duration::seconds(1);
  harness::World world(config);

  int dropped = 0;
  world.wireless().set_drop_filter(
      [&](MhId, const net::PayloadPtr& payload, bool uplink) {
        if (!uplink && dropped == 0 &&
            std::string(payload->name()) == "result") {
          ++dropped;
          return true;
        }
        return false;
      });

  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    mh.issue_request(world.server_address(0), "query");
  });
  world.run_to_quiescence();

  const obs::CostLedger& ledger = *world.cost_ledger();
  // The retransmitted result (attempt > 1) lands in the recovery class.
  // (The re-issued request can also be answered from the Mss result cache
  // with a fresh attempt=1 frame, so app-class bytes may exceed recovery.)
  EXPECT_GT(ledger.bytes(LinkKind::kWirelessDown, PurposeClass::kRecovery),
            0u);
  EXPECT_GE(ledger.bytes(LinkKind::kWirelessDown, PurposeClass::kApp),
            ledger.bytes(LinkKind::kWirelessDown, PurposeClass::kRecovery));
  // The re-issued request that provoked it is uplink recovery.
  EXPECT_GT(ledger.bytes(LinkKind::kWirelessUp, PurposeClass::kRecovery), 0u);
  EXPECT_TRUE(row_empty(ledger.summary(), PurposeClass::kOther));
}

// ARQ frames pin to their ledger classes: a first-attempt data frame takes
// the class of the application message it carries (here kApp, including the
// 16-byte ARQ header), a retransmission (attempt > 1) is kRecovery without
// consulting the classifier's first-sighting sets, and every arqAck on the
// downlink is kControl.  Nothing may leak into kOther.
TEST(CostLedger, ArqFramesClassifyAsControlAndRecovery) {
  harness::ScenarioConfig config = scripted_config();
  config.server.base_service_time = Duration::millis(300);
  config.rdp.arq.mode = core::ArqMode::kSlidingWindow;
  harness::World world(config);

  int dropped = 0;
  std::uint64_t arq_ack_bytes = 0;
  world.wireless().set_drop_filter(
      [&](MhId, const net::PayloadPtr& payload, bool uplink) {
        const auto* frame =
            dynamic_cast<const core::MsgArqData*>(payload.get());
        if (uplink && dropped == 0 && frame != nullptr &&
            frame->attempt == 1 &&
            std::string(frame->inner->name()) == "request") {
          ++dropped;
          return true;
        }
        return false;
      });
  world.wireless().add_frame_observer(
      [&](MhId, const net::PayloadPtr& payload, bool uplink,
          net::FramePhase phase) {
        if (!uplink && phase == net::FramePhase::kSent &&
            std::string(payload->name()) == "arqAck") {
          arq_ack_bytes += payload->wire_size();
        }
      });

  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    mh.issue_request(world.server_address(0), "query");
  });
  world.run_to_quiescence();
  ASSERT_EQ(dropped, 1);
  ASSERT_EQ(world.counters().get("arq.retransmits"), 1u);

  const obs::CostLedger& ledger = *world.cost_ledger();
  const core::MsgUplinkRequest probe(common::RequestId(MhId(0), 1),
                                     world.server_address(0), "query", false);
  const std::uint64_t framed_request = 4 + 1 + 12 + probe.wire_size();
  // Offered attempt-1 frame (dropped on the air, still offered bytes) is
  // app class; the RTO retransmission is exactly one recovery frame.
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp, PurposeClass::kApp),
            framed_request);
  EXPECT_EQ(ledger.bytes(LinkKind::kWirelessUp, PurposeClass::kRecovery),
            framed_request);
  // Each arqAck the receiver emitted landed in downlink control, alongside
  // the (smaller) registration traffic.
  EXPECT_GT(arq_ack_bytes, 0u);
  EXPECT_GE(ledger.bytes(LinkKind::kWirelessDown, PurposeClass::kControl),
            arq_ack_bytes);
  EXPECT_TRUE(row_empty(ledger.summary(), PurposeClass::kOther));
}

// Energy drain is monotone in wireless activity, and replication's extra
// traffic is wired-only: switching it on grows wired recovery bytes but
// leaves the radio budget essentially untouched.
TEST(CostLedger, EnergyMonotoneAndReplicationIsWiredOnly) {
  harness::ExperimentParams params;
  params.seed = 9;
  params.grid_width = 2;
  params.grid_height = 2;
  params.num_mh = 6;
  params.mean_dwell = Duration::seconds(15);
  params.mean_request_interval = Duration::seconds(5);
  params.drain_time = Duration::seconds(30);
  params.energy.tx_per_byte = 2.0;
  params.energy.rx_per_byte = 1.0;

  params.sim_time = Duration::seconds(60);
  const auto short_run = harness::run_rdp_experiment(params);
  params.sim_time = Duration::seconds(180);
  const auto long_run = harness::run_rdp_experiment(params);
  EXPECT_GT(long_run.cost.energy_total, short_run.cost.energy_total);

  harness::ExperimentParams repl = params;
  repl.replication.mode = replication::Mode::kAsync;
  const auto repl_run = harness::run_rdp_experiment(repl);

  // Replica updates are recovery-class wired traffic on top of whatever
  // mobility-driven result re-forwards the unreplicated run already had.
  EXPECT_EQ(long_run.wired_by_type.count("replicaUpdate"), 0u);
  EXPECT_GT(repl_run.wired_by_type.count("replicaUpdate"), 0u);
  EXPECT_GT(repl_run.cost.row(PurposeClass::kRecovery).wired_bytes,
            long_run.cost.row(PurposeClass::kRecovery).wired_bytes);
  EXPECT_GT(repl_run.cost.wired_bytes, long_run.cost.wired_bytes);
  // ...and essentially none of it crosses the air: wireless recovery stays
  // the small mobility-driven retransmission tail (< 5% of wireless bytes,
  // the E12 acceptance bound) in both runs, and the radio energy bill
  // stays within noise of the unreplicated run.
  EXPECT_LT(repl_run.cost.wireless_share(PurposeClass::kRecovery), 0.05);
  EXPECT_LT(long_run.cost.wireless_share(PurposeClass::kRecovery), 0.05);
  EXPECT_GT(repl_run.cost.energy_total, 0.0);
  EXPECT_NEAR(repl_run.cost.energy_total, long_run.cost.energy_total,
              0.1 * long_run.cost.energy_total);
}

// The Mobile-IP baseline's tunneled results land in the tunnel class, and
// the baseline world's ledger reconciles just like the RDP one.
TEST(CostLedger, MipBaselineChargesTunnelClass) {
  harness::ExperimentParams params;
  params.seed = 4;
  params.grid_width = 2;
  params.grid_height = 2;
  params.num_mh = 6;
  params.sim_time = Duration::seconds(120);
  params.drain_time = Duration::seconds(30);
  params.mean_dwell = Duration::seconds(15);
  params.mean_request_interval = Duration::seconds(5);

  const auto result = harness::run_baseline_experiment(
      params, baseline::BaselineMode::kMobileIp);
  EXPECT_GT(result.cost.row(PurposeClass::kTunnel).wired_bytes, 0u);
  EXPECT_TRUE(row_empty(result.cost, PurposeClass::kOther));
  EXPECT_EQ(result.cost.wired_bytes, result.wired_bytes);
  EXPECT_GT(result.cost.wireless_bytes, 0u);
}

// Each accounting quantity has one export: the registry keeps run-level
// series only (no per-Mh energy gauge, no per-type wired counter), and the
// ledger's per-type wired counts account for every wired send, on both
// kernels.
std::uint64_t total(const std::map<std::string, std::uint64_t>& counts) {
  std::uint64_t sum = 0;
  for (const auto& [name, count] : counts) sum += count;
  return sum;
}

void expect_run_level_series_only(const obs::MetricsRegistry& registry) {
  std::ostringstream json;
  registry.write_json(json);
  EXPECT_EQ(json.str().find("mh="), std::string::npos) << json.str();
  EXPECT_EQ(json.str().find("net.wired.messages"), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"rdp.energy.spent_total\""), std::string::npos);
  EXPECT_NE(json.str().find("\"rdp.energy.remaining_min\""),
            std::string::npos);
  EXPECT_FALSE(registry.samples().empty());
}

TEST(CostLedger, RegistryKeepsRunLevelSeriesOnBothKernels) {
  harness::ScenarioConfig config = scripted_config();
  config.telemetry.metrics_period = Duration::millis(250);
  {
    harness::World world(config);
    run_scripted_fig3(world);
    expect_run_level_series_only(world.telemetry().registry());
    EXPECT_GT(world.wired().messages_sent(), 0u);
    EXPECT_EQ(total(world.cost_ledger()->wired_message_counts()),
              world.wired().messages_sent());
  }
  harness::ShardedScenarioConfig sharded;
  sharded.base = config;
  sharded.base.num_mh = 3;
  sharded.shards = 3;
  harness::ShardedWorld world(sharded);
  for (int i = 0; i < sharded.base.num_mh; ++i) {
    world.mh(i).power_on(world.home_cell(i));
    world.shard_simulator(world.home_shard(i))
        .schedule(Duration::millis(100), [&world, i] {
          world.mh(i).issue_request(world.server_address(0), "query");
        });
  }
  world.run_to_quiescence();
  expect_run_level_series_only(world.telemetry().registry());
  EXPECT_GT(world.wired_messages_total(), 0u);
  EXPECT_EQ(total(world.cost_ledger()->wired_message_counts()),
            world.wired_messages_total());
}

// Export-path error handling (telemetry side): the metrics/trace writers
// must return false when the directory does not exist.
TEST(TelemetryExport, ReportsFailureOnMissingDirectory) {
  obs::TelemetryConfig config;
  config.trace = true;
  obs::Telemetry telemetry(config);
  telemetry.registry().counter("x").increment();

  EXPECT_FALSE(telemetry.write_metrics_csv("/nonexistent-rdp-dir/m.csv"));
  EXPECT_FALSE(telemetry.write_metrics_json("/nonexistent-rdp-dir/m.json"));
  EXPECT_FALSE(telemetry.write_trace_json("/nonexistent-rdp-dir/t.json"));

  const std::string path = "rdp_telemetry_test_out.csv";
  EXPECT_TRUE(telemetry.write_metrics_csv(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdp
