#include "obs/cost_ledger.h"

#include <algorithm>
#include <ostream>
#include <string_view>
#include <typeinfo>

#include "baseline/messages.h"
#include "common/check.h"
#include "core/messages.h"
#include "obs/perf_probe.h"

namespace rdp::obs {

namespace {

// Static name -> purpose rules for every message whose class does not
// depend on run-time state.  Request/result messages with re-issue or
// retransmission semantics are handled by type in classify() instead.
struct NameRule {
  const char* name;
  PurposeClass purpose;
};
constexpr NameRule kNameRules[] = {
    // Application payload.
    {"serverResult", PurposeClass::kApp},
    // RDP control: registration and acknowledgement bookkeeping.
    {"join", PurposeClass::kControl},
    {"leave", PurposeClass::kControl},
    {"registrationAck", PurposeClass::kControl},
    {"ack", PurposeClass::kControl},
    {"ackForward", PurposeClass::kControl},
    {"serverAck", PurposeClass::kControl},
    {"delPref", PurposeClass::kControl},
    {"unsubscribe", PurposeClass::kControl},
    {"arqAck", PurposeClass::kControl},
    {"forwardUnsubscribe", PurposeClass::kControl},
    {"serverUnsubscribe", PurposeClass::kControl},
    {"mipAck", PurposeClass::kControl},
    {"mipAckForward", PurposeClass::kControl},
    // Hand-off signaling and pref state transfer.  greet covers both
    // hand-off and re-activation (the ledger cannot see the receiving
    // Mss); deregAck carries the transferred pref.
    {"greet", PurposeClass::kHandoff},
    {"dereg", PurposeClass::kHandoff},
    {"deregAck", PurposeClass::kHandoff},
    {"update_currentLoc", PurposeClass::kHandoff},
    {"mipGreet", PurposeClass::kHandoff},
    {"mipRegistration", PurposeClass::kHandoff},
    {"mipRegReply", PurposeClass::kHandoff},
    // Recovery: replication shipping, crash repair, GC-race repair.
    {"replicaUpdate", PurposeClass::kRecovery},
    {"replicaErase", PurposeClass::kRecovery},
    {"replicaHeartbeat", PurposeClass::kRecovery},
    {"replicaResync", PurposeClass::kRecovery},
    {"chainAck", PurposeClass::kRecovery},
    {"replicaFence", PurposeClass::kRecovery},
    {"replicaFenceAck", PurposeClass::kRecovery},
    {"membershipEvent", PurposeClass::kRecovery},
    {"membershipReport", PurposeClass::kRecovery},
    {"membershipProbe", PurposeClass::kRecovery},
    {"primaryFence", PurposeClass::kRecovery},
    {"prefRepair", PurposeClass::kRecovery},
    {"prefRepairNack", PurposeClass::kRecovery},
    {"transferResume", PurposeClass::kRecovery},
    {"proxyGone", PurposeClass::kRecovery},
    {"prefRestore", PurposeClass::kRecovery},
};

PurposeClass classify_by_name(std::string_view name) {
  for (const NameRule& rule : kNameRules) {
    if (name == rule.name) return rule.purpose;
  }
  return PurposeClass::kOther;
}

template <typename Message>
bool is(const net::MessageBase& message) {
  return dynamic_cast<const Message*>(&message) != nullptr;
}

// Retransmission rule shared by results and tunnels.
template <typename Message>
PurposeClass by_attempt(const net::MessageBase& message, PurposeClass first) {
  return static_cast<const Message&>(message).attempt > 1
             ? PurposeClass::kRecovery
             : first;
}

}  // namespace

const char* link_kind_name(LinkKind link) {
  switch (link) {
    case LinkKind::kWired:
      return "wired";
    case LinkKind::kWirelessUp:
      return "wireless_up";
    case LinkKind::kWirelessDown:
      return "wireless_down";
  }
  return "?";
}

const char* purpose_class_name(PurposeClass purpose) {
  switch (purpose) {
    case PurposeClass::kApp:
      return "app";
    case PurposeClass::kControl:
      return "control";
    case PurposeClass::kHandoff:
      return "handoff";
    case PurposeClass::kRecovery:
      return "recovery";
    case PurposeClass::kTunnel:
      return "tunnel";
    case PurposeClass::kOther:
      return "other";
  }
  return "?";
}

CostLedger::CostLedger(CostConfig config, MetricsRegistry* registry)
    : config_(config), registry_(registry) {}

CostLedger::Rule CostLedger::rule_of(const net::MessageBase& message) {
  const auto key = reinterpret_cast<std::uintptr_t>(&typeid(message));
  if (const Rule* rule = rules_.find(key)) return *rule;
  // First frame of this concrete type: the one dynamic_cast chain it
  // will ever see.
  Rule rule = Rule::kByName;
  if (is<core::MsgUplinkRequest>(message)) {
    rule = Rule::kUplinkRequest;
  } else if (is<core::MsgForwardRequest>(message)) {
    rule = Rule::kForwardRequest;
  } else if (is<core::MsgServerRequest>(message)) {
    rule = Rule::kServerRequest;
  } else if (is<baseline::MsgMipRequest>(message)) {
    rule = Rule::kMipRequest;
  } else if (is<core::MsgResultForward>(message)) {
    rule = Rule::kResultForward;
  } else if (is<core::MsgDownlinkResult>(message)) {
    rule = Rule::kDownlinkResult;
  } else if (is<baseline::MsgMipTunnel>(message)) {
    rule = Rule::kMipTunnel;
  } else if (is<core::MsgArqData>(message)) {
    rule = Rule::kArqData;
  }
  *rules_.try_emplace(key).first = rule;
  return rule;
}

std::size_t CostLedger::row_of(const char* name) {
  const auto key = reinterpret_cast<std::uintptr_t>(name);
  if (const std::uint32_t* index = name_index_.find(key)) return *index;
  std::size_t index = 0;
  while (index < names_.size() && names_[index].name != name) ++index;
  if (index == names_.size()) {
    names_.push_back(NameRow{name, classify_by_name(name)});
  }
  *name_index_.try_emplace(key).first = static_cast<std::uint32_t>(index);
  return index;
}

PurposeClass CostLedger::first_sighting(int hop, common::RequestId request) {
  return seen_[hop].insert(request.packed()) ? PurposeClass::kApp
                                             : PurposeClass::kRecovery;
}

PurposeClass CostLedger::classify_downlink(const net::MessageBase& message,
                                           Rule rule) {
  switch (rule) {
    case Rule::kDownlinkResult:
      return by_attempt<core::MsgDownlinkResult>(message, PurposeClass::kApp);
    case Rule::kMipTunnel:
      return by_attempt<baseline::MsgMipTunnel>(message, PurposeClass::kTunnel);
    default:
      return names_[row_of(message.name())].by_name;
  }
}

PurposeClass CostLedger::classify(const net::MessageBase& message) {
  // Request-bearing messages: the first sighting of the RequestId on this
  // hop is the request doing application work; a repeat means the Mh
  // watchdog re-issued it (or a proxy re-drove it), which is recovery.
  // Results carry an explicit attempt counter; attempt > 1 is the proxy's
  // (or home agent's) retransmission machinery at work.
  const Rule rule = rule_of(message);
  switch (rule) {
    case Rule::kUplinkRequest:
      return first_sighting(
          0, static_cast<const core::MsgUplinkRequest&>(message).request);
    case Rule::kForwardRequest:
      return first_sighting(
          1, static_cast<const core::MsgForwardRequest&>(message).request);
    case Rule::kServerRequest:
      return first_sighting(
          2, static_cast<const core::MsgServerRequest&>(message).request);
    case Rule::kMipRequest:
      return first_sighting(
          3, static_cast<const baseline::MsgMipRequest&>(message).request);
    case Rule::kResultForward:
      return by_attempt<core::MsgResultForward>(message, PurposeClass::kApp);
    default:
      return classify_downlink(message, rule);
  }
}

void CostLedger::account(LinkKind link, PurposeClass purpose,
                         const net::MessageBase& outer, std::uint64_t size) {
  const int l = static_cast<int>(link);
  const int p = static_cast<int>(purpose);
  Cell& row = names_[row_of(outer.name())].cells[l][p];
  ++row.frames;
  row.bytes += size;

  if (registry_ != nullptr) {
    if (bytes_counters_[l][p] == nullptr) {
      const Labels labels = {{"class", purpose_class_name(purpose)},
                             {"link", link_kind_name(link)}};
      bytes_counters_[l][p] = &registry_->counter("rdp.cost.bytes", labels);
      frames_counters_[l][p] = &registry_->counter("rdp.cost.frames", labels);
    }
    bytes_counters_[l][p]->increment(size);
    frames_counters_[l][p]->increment();
  }
}

void CostLedger::charge(common::MhId mh, PurposeClass purpose, double amount) {
  if (amount <= 0) return;
  RDP_CHECK(mh.valid(), "energy charged to an invalid Mh id");
  if (mh.value() >= energy_.size()) energy_.resize(mh.value() + 1);
  double& spent = energy_[mh.value()];
  spent += amount;
  energy_total_ += amount;
  class_energy_[static_cast<int>(purpose)] += amount;
  if (spent > max_spent_) max_spent_ = spent;

  if (registry_ != nullptr) {
    if (spent_total_gauge_ == nullptr) {
      spent_total_gauge_ = &registry_->gauge("rdp.energy.spent_total");
    }
    spent_total_gauge_->set(energy_total_);
    if (config_.energy.budget > 0) {
      if (remaining_min_gauge_ == nullptr) {
        remaining_min_gauge_ = &registry_->gauge("rdp.energy.remaining_min");
      }
      remaining_min_gauge_->set(config_.energy.budget - max_spent_);
    }
  }
}

void CostLedger::on_wired_send(const net::Envelope& envelope) {
  RDP_PROF_SCOPE(kLedger);
  const net::MessageBase& outer = *envelope.payload;
  // Charge the outer payload's size: the causal wrapper's piggyback bytes
  // are real wire bytes, and this is what WiredNetwork::bytes_sent() counts.
  account(LinkKind::kWired, classify(outer.unwrap()), outer,
          outer.wire_size());
}

void CostLedger::on_wireless_frame(common::MhId mh,
                                   const net::PayloadPtr& payload, bool uplink,
                                   net::FramePhase phase) {
  RDP_PROF_SCOPE(kLedger);
  const net::MessageBase& outer = *payload;
  const net::MessageBase& inner = outer.unwrap();
  if (uplink) {
    // Bytes and transmit energy are committed the moment the radio keys up,
    // lost frames included.  Delivery of an uplink frame costs the Mh
    // nothing further (the Mss is wall-powered), so the stateful
    // first-sighting classification runs exactly once per frame.
    if (phase != net::FramePhase::kSent) return;
    const std::uint64_t size = outer.wire_size();
    // An ARQ retransmission is recovery regardless of what it carries.
    // The first-sighting sets stay untouched so the attempt-1 frame
    // (possibly replayed out of order by the shard merger) still
    // classifies as app.
    const bool arq_retransmit =
        &inner != &outer && rule_of(outer) == Rule::kArqData &&
        static_cast<const core::MsgArqData&>(outer).attempt > 1;
    const PurposeClass purpose =
        arq_retransmit ? PurposeClass::kRecovery : classify(inner);
    account(LinkKind::kWirelessUp, purpose, outer, size);
    charge(mh, purpose,
           config_.energy.tx_per_frame +
               config_.energy.tx_per_byte * static_cast<double>(size));
    return;
  }
  // Downlink classification is stateless (attempt counters live in the
  // message), so it is safe to evaluate at both phases.
  const std::uint64_t size = outer.wire_size();
  const PurposeClass purpose = classify_downlink(inner, rule_of(inner));
  if (phase == net::FramePhase::kSent) {
    account(LinkKind::kWirelessDown, purpose, outer, size);
    return;
  }
  // Reception energy only for frames the Mh radio actually took delivery
  // of; frames dropped in the air or discarded cost the Mh nothing.
  charge(mh, purpose,
         config_.energy.rx_per_frame +
             config_.energy.rx_per_byte * static_cast<double>(size));
}

std::vector<const CostLedger::NameRow*> CostLedger::rows_by_name() const {
  std::vector<const NameRow*> rows;
  rows.reserve(names_.size());
  for (const NameRow& row : names_) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const NameRow* a, const NameRow* b) {
    return a->name < b->name;
  });
  return rows;
}

CostLedger::Cell CostLedger::class_cell(LinkKind link,
                                        PurposeClass purpose) const {
  Cell total;
  for (const NameRow& row : names_) {
    const Cell& cell =
        row.cells[static_cast<int>(link)][static_cast<int>(purpose)];
    total.frames += cell.frames;
    total.bytes += cell.bytes;
  }
  return total;
}

std::uint64_t CostLedger::bytes(LinkKind link) const {
  std::uint64_t total = 0;
  for (int c = 0; c < kPurposeClassCount; ++c) {
    total += class_cell(link, static_cast<PurposeClass>(c)).bytes;
  }
  return total;
}

std::uint64_t CostLedger::bytes(LinkKind link, PurposeClass purpose) const {
  return class_cell(link, purpose).bytes;
}

std::map<std::string, std::uint64_t> CostLedger::wired_message_counts() const {
  std::map<std::string, std::uint64_t> counts;
  for (const NameRow& row : names_) {
    std::uint64_t frames = 0;
    for (const Cell& cell : row.cells[static_cast<int>(LinkKind::kWired)]) {
      frames += cell.frames;
    }
    if (frames > 0) counts[row.name] += frames;
  }
  return counts;
}

double CostLedger::energy_spent(common::MhId mh) const {
  return mh.value() < energy_.size() ? energy_[mh.value()] : 0.0;
}

double CostLedger::energy_min_remaining() const {
  return config_.energy.budget > 0 ? config_.energy.budget - max_spent_ : 0.0;
}

CostSummary CostLedger::summary() const {
  CostSummary summary;
  for (int c = 0; c < kPurposeClassCount; ++c) {
    CostSummary::ClassRow& row = summary.by_class[c];
    const auto purpose = static_cast<PurposeClass>(c);
    const Cell wired = class_cell(LinkKind::kWired, purpose);
    row.wired_frames = wired.frames;
    row.wired_bytes = wired.bytes;
    for (LinkKind link : {LinkKind::kWirelessUp, LinkKind::kWirelessDown}) {
      const Cell wireless = class_cell(link, purpose);
      row.wireless_frames += wireless.frames;
      row.wireless_bytes += wireless.bytes;
    }
    row.energy = class_energy_[c];
    summary.wired_frames += row.wired_frames;
    summary.wired_bytes += row.wired_bytes;
    summary.wireless_frames += row.wireless_frames;
    summary.wireless_bytes += row.wireless_bytes;
  }
  summary.energy_total = energy_total_;
  summary.energy_min_remaining = energy_min_remaining();
  return summary;
}

stats::Table CostLedger::message_table() const {
  stats::Table table({"link", "class", "message", "frames", "bytes"});
  const std::vector<const NameRow*> rows = rows_by_name();
  for (int l = 0; l < kLinkKindCount; ++l) {
    for (int p = 0; p < kPurposeClassCount; ++p) {
      for (const NameRow* row : rows) {
        const Cell& cell = row->cells[l][p];
        if (cell.frames == 0) continue;
        table.add_row({link_kind_name(static_cast<LinkKind>(l)),
                       purpose_class_name(static_cast<PurposeClass>(p)),
                       row->name, stats::Table::fmt(cell.frames),
                       stats::Table::fmt(cell.bytes)});
      }
    }
  }
  return table;
}

void CostSummary::csv_header(std::ostream& os) {
  os << "arm,class,wired_frames,wired_bytes,wireless_frames,wireless_bytes,"
        "wireless_share,energy\n";
}

void CostSummary::append_csv(std::ostream& os, const std::string& arm) const {
  for (int c = 0; c < kPurposeClassCount; ++c) {
    const ClassRow& r = by_class[c];
    const auto purpose = static_cast<PurposeClass>(c);
    os << arm << ',' << purpose_class_name(purpose) << ',' << r.wired_frames
       << ',' << r.wired_bytes << ',' << r.wireless_frames << ','
       << r.wireless_bytes << ',' << wireless_share(purpose) << ',' << r.energy
       << '\n';
  }
  os << arm << ",total," << wired_frames << ',' << wired_bytes << ','
     << wireless_frames << ',' << wireless_bytes << ",1," << energy_total
     << '\n';
}

}  // namespace rdp::obs
