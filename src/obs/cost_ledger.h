// Wire-level cost ledger: measured byte/energy accounting for §5.
//
// Section 5 of the paper argues RDP's overhead advantage over Mobile IP
// analytically; this module turns those claims into measured tables.  A
// CostLedger taps every frame crossing the wired network and the wireless
// channel and classifies it three ways:
//
//   * link kind   — wired, wireless uplink, wireless downlink;
//   * message     — the payload's stable type name (transport wrappers such
//                   as the causal layer's envelope are unwrapped for
//                   classification but charged at their full wire_size());
//   * purpose     — application payload, RDP control, hand-off/pref state
//                   transfer, recovery traffic (replication, re-issue,
//                   retransmission, repair), or baseline MIP tunneling.
//
// Byte counts come from MessageBase::wire_size() — the same figure the
// transports themselves charge — so ledger totals reconcile byte-for-byte
// with WiredNetwork::bytes_sent() and WirelessChannel::{up,down}link_bytes().
//
// A frame costs constant work and no allocation: each concrete message
// type's classification rule and each message name's row are resolved on
// first sighting and cached, tallies live in fixed (link, purpose) cells
// per name, per-Mh energy in a vector indexed by MhId, and every registry
// series is looked up once, at its first use.
//
// On top of the byte ledger sits a per-Mh energy model: a configurable cost
// per wireless byte/frame transmitted and received by the mobile host.
// Transmissions are charged at send time (the radio spends the airtime even
// when the frame is lost); receptions are charged only on actual delivery.
// Drain is mirrored into a MetricsRegistry as the rdp.energy.* gauge series
// and byte flow as the rdp.cost.* counter series, so the telemetry sampler
// can export both as time series.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "net/message.h"
#include "net/wireless.h"
#include "obs/metrics_registry.h"
#include "stats/table.h"

namespace rdp::obs {

enum class LinkKind {
  kWired = 0,
  kWirelessUp = 1,
  kWirelessDown = 2,
};
inline constexpr int kLinkKindCount = 3;
[[nodiscard]] const char* link_kind_name(LinkKind link);

// The §5 cost categories.  kOther catches traffic the ledger has no rule
// for (e.g. auxiliary workloads riding the same networks); a non-zero
// kOther row in a pure-RDP run means a classification rule is missing.
enum class PurposeClass {
  kApp = 0,       // requests and results doing application work
  kControl = 1,   // registration, acks, subscription bookkeeping
  kHandoff = 2,   // hand-off signaling and pref state transfer
  kRecovery = 3,  // replication, retransmission, re-issue, repair
  kTunnel = 4,    // baseline Mobile IP tunneling
  kOther = 5,
};
inline constexpr int kPurposeClassCount = 6;
[[nodiscard]] const char* purpose_class_name(PurposeClass purpose);

// Per-Mh radio energy model, in abstract energy units.  The defaults keep
// the classic WaveLAN-style asymmetry (transmitting costs about twice as
// much as receiving) without pinning the ledger to one radio's datasheet.
struct EnergyConfig {
  double tx_per_byte = 2.0;   // per wireless byte the Mh transmits
  double rx_per_byte = 1.0;   // per wireless byte the Mh receives
  double tx_per_frame = 0.0;  // fixed cost per transmitted frame
  double rx_per_frame = 0.0;  // fixed cost per received frame
  double budget = 0.0;        // per-Mh budget; <= 0 means untracked
};

struct CostConfig {
  bool enabled = false;
  EnergyConfig energy;
};

// Immutable snapshot of the ledger, cheap to copy out of a World before it
// is torn down (ExperimentResult carries one per run).
struct CostSummary {
  struct ClassRow {
    std::uint64_t wired_frames = 0;
    std::uint64_t wired_bytes = 0;
    std::uint64_t wireless_frames = 0;  // uplink + downlink, at send time
    std::uint64_t wireless_bytes = 0;
    double energy = 0;  // Mh radio energy attributed to this class
  };

  std::array<ClassRow, kPurposeClassCount> by_class{};
  std::uint64_t wired_frames = 0;
  std::uint64_t wired_bytes = 0;
  std::uint64_t wireless_frames = 0;
  std::uint64_t wireless_bytes = 0;
  double energy_total = 0;
  // budget - max per-Mh spend when a budget is configured, else 0.
  double energy_min_remaining = 0;

  [[nodiscard]] const ClassRow& row(PurposeClass purpose) const {
    return by_class[static_cast<int>(purpose)];
  }
  // Fraction of all wireless bytes belonging to `purpose` (0 when idle).
  [[nodiscard]] double wireless_share(PurposeClass purpose) const {
    return wireless_bytes == 0
               ? 0.0
               : static_cast<double>(row(purpose).wireless_bytes) /
                     static_cast<double>(wireless_bytes);
  }

  // Purpose-class CSV rows.  `arm` labels the run (e.g. "rdp", "mip") so
  // several runs can share one file: write the header once, then
  // append_csv once per arm.  All classes are emitted, including empty
  // ones, so downstream schemas are stable.
  static void csv_header(std::ostream& os);
  void append_csv(std::ostream& os, const std::string& arm) const;
};

class CostLedger {
 public:
  // `registry` may be null (BaselineWorld has no telemetry); the ledger
  // then keeps its own tallies but exports no metric series.
  explicit CostLedger(CostConfig config, MetricsRegistry* registry = nullptr);

  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  // The tap entry points: every wired send and every radio frame.  The
  // ledger subscribes to nothing itself; its world feeds it (the RDP
  // worlds through harness::Instruments).
  void on_wired_send(const net::Envelope& envelope);
  void on_wireless_frame(common::MhId mh, const net::PayloadPtr& payload,
                         bool uplink, net::FramePhase phase);

  [[nodiscard]] const CostConfig& config() const { return config_; }

  // --- byte ledger ---------------------------------------------------------
  [[nodiscard]] std::uint64_t bytes(LinkKind link) const;
  [[nodiscard]] std::uint64_t bytes(LinkKind link, PurposeClass purpose) const;
  [[nodiscard]] std::uint64_t frames(LinkKind link) const;
  [[nodiscard]] std::uint64_t wired_bytes() const {
    return bytes(LinkKind::kWired);
  }
  [[nodiscard]] std::uint64_t wireless_bytes() const {
    return bytes(LinkKind::kWirelessUp) + bytes(LinkKind::kWirelessDown);
  }
  // Uplink + downlink bytes for one purpose class.
  [[nodiscard]] std::uint64_t wireless_bytes(PurposeClass purpose) const {
    return bytes(LinkKind::kWirelessUp, purpose) +
           bytes(LinkKind::kWirelessDown, purpose);
  }
  // Wired frame counts per message name (purposes merged) — the per-type
  // breakdown the experiment harness reports.
  [[nodiscard]] std::map<std::string, std::uint64_t> wired_message_counts()
      const;

  // --- energy model --------------------------------------------------------
  [[nodiscard]] double energy_spent(common::MhId mh) const;
  [[nodiscard]] double energy_spent_total() const;
  // budget - max per-Mh spend; 0 when no budget is configured.
  [[nodiscard]] double energy_min_remaining() const;

  [[nodiscard]] CostSummary summary() const;

  // --- rendering / export --------------------------------------------------
  // Message-level detail: one row per (link, class, message).
  [[nodiscard]] stats::Table message_table() const;

  // Purpose-class CSV rows (delegates to CostSummary's writers).
  static void csv_header(std::ostream& os) { CostSummary::csv_header(os); }
  void append_csv(std::ostream& os, const std::string& arm) const {
    summary().append_csv(os, arm);
  }

  // Whole-ledger exports; return false (and log) when the path cannot be
  // opened — e.g. the target directory does not exist — or a write fails.
  bool write_csv(const std::string& path, const std::string& arm = "") const;
  bool write_json(const std::string& path) const;
  void write_json_stream(std::ostream& os) const;

 private:
  struct Cell {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
  };
  // How a message type's purpose class is decided.  Resolved once per
  // concrete type (rule_of), then applied with a static_cast.
  enum class Rule : std::uint8_t {
    kByName,          // the name's fixed class (kOther when it has none)
    kUplinkRequest,   // request-bearing, one first-sighting set per hop:
    kForwardRequest,  //   the first sighting of the RequestId is app, a
    kServerRequest,   //   repeat is a re-issue (recovery)
    kMipRequest,
    kResultForward,   // attempt > 1 is recovery, else app
    kDownlinkResult,  // attempt > 1 is recovery, else app
    kMipTunnel,       // attempt > 1 is recovery, else tunnel
    kArqData,         // ARQ framing: attempt > 1 is recovery
  };
  static constexpr int kSightingHops = 4;  // the four request rules
  // One message name: its fixed class and its tallies per (link, purpose).
  struct NameRow {
    std::string name;
    PurposeClass by_name;
    Cell cells[kLinkKindCount][kPurposeClassCount] = {};
  };
  struct MhEnergy {
    double spent = 0;  // > 0 exactly when the Mh was ever charged
    MetricsRegistry::Gauge* spent_gauge = nullptr;
    MetricsRegistry::Gauge* remaining_gauge = nullptr;
  };

  [[nodiscard]] Rule rule_of(const net::MessageBase& message);
  // Index into names_ of the row for `name`, keyed by the pointer (message
  // names are string literals) and merged by text on first sighting.
  [[nodiscard]] std::size_t row_of(const char* name);
  // Rows in (name) order, as the exports list them.
  [[nodiscard]] std::vector<const NameRow*> rows_by_name() const;
  [[nodiscard]] Cell class_cell(LinkKind link, PurposeClass purpose) const;

  // Classify by concrete type / name.  Stateful for request-bearing
  // messages: the first sighting of a RequestId on each hop is application
  // traffic, any repeat is a re-issue and therefore recovery.  Only called
  // once per transmitted frame (never for the delivery phase of a frame
  // whose class depends on that state).
  PurposeClass classify(const net::MessageBase& message);
  // Stateless subset, safe to re-evaluate at delivery time (downlink
  // classes depend only on the message's own fields).
  PurposeClass classify_downlink(const net::MessageBase& message, Rule rule);
  PurposeClass first_sighting(int hop, common::RequestId request);

  void account(LinkKind link, PurposeClass purpose,
               const net::MessageBase& outer, std::uint64_t size);
  void charge(common::MhId mh, PurposeClass purpose, double amount);

  CostConfig config_;
  MetricsRegistry* registry_ = nullptr;

  common::FlatMap<Rule> rules_;                 // by &typeid(message)
  common::FlatMap<std::uint32_t> name_index_;  // by name pointer
  std::vector<NameRow> names_;                 // in first-sighting order
  double class_energy_[kPurposeClassCount] = {};
  MetricsRegistry::Counter* bytes_counters_[kLinkKindCount]
                                           [kPurposeClassCount] = {};
  MetricsRegistry::Counter* frames_counters_[kLinkKindCount]
                                            [kPurposeClassCount] = {};

  std::vector<MhEnergy> energy_;  // indexed by MhId value
  double energy_total_ = 0;
  double max_spent_ = 0;
  MetricsRegistry::Gauge* spent_total_gauge_ = nullptr;
  MetricsRegistry::Gauge* remaining_min_gauge_ = nullptr;

  // First-sighting sets backing the re-issue detection, one per hop so a
  // request's normal wired echo is not mistaken for a duplicate.  Keyed by
  // RequestId::packed().
  std::array<common::FlatMap<common::NoValue>, kSightingHops> seen_;
};

}  // namespace rdp::obs
