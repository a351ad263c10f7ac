#include "harness/instruments.h"

#include <iostream>

#include "harness/world.h"

namespace rdp::harness {

namespace {

// The auditor's allowances follow the scenario's ablations: disabling
// causal order permits result reordering at the proxy, and the Mh re-issue
// extension can legitimately give an Mh a second proxy (and replay old
// result sequence numbers) after a crash.
obs::TelemetryConfig telemetry_config(const ScenarioConfig& config) {
  obs::TelemetryConfig telemetry = config.telemetry;
  if (config.rdp.mh_reissue) {
    telemetry.audit_rules.allow_proxy_coexistence = true;
    telemetry.audit_rules.allow_result_reordering = true;
    // Deleting a proxy with requests pending is not a silent drop when the
    // Mh watchdog owns re-driving them: a re-issued request coexists with
    // the stale incarnation it abandoned, and the del-proxy handshake (or
    // an adopted-proxy reclaim) legitimately tears the latter down.
    // Without the watchdog R4 stays armed and the deletion site reports
    // the losses itself.
    telemetry.audit_rules.allow_delproxy_with_pending = true;
  }
  if (!config.causal_order) {
    telemetry.audit_rules.allow_result_reordering = true;
  }
  if (config.replication.mode != replication::Mode::kOff) {
    // During the promotion window a backup's adopted proxy coexists with
    // the (dead) primary's bookkeeping, and re-driven server queries can
    // replay result sequence numbers.
    telemetry.audit_rules.allow_proxy_coexistence = true;
    telemetry.audit_rules.allow_result_reordering = true;
  }
  return telemetry;
}

}  // namespace

Instruments::Instruments(const ScenarioConfig& config,
                         const core::Directory& directory,
                         core::ObserverList& observers,
                         const char* world_name)
    : telemetry_(telemetry_config(config), &directory),
      world_name_(world_name) {
  telemetry_.attach(observers);
  if (config.cost.enabled) {
    cost_ledger_ =
        std::make_unique<obs::CostLedger>(config.cost, &telemetry_.registry());
  }
  if (config.analyzer.enabled) {
    analyzer_ = std::make_unique<analyzer::Analyzer>(config.analyzer,
                                                     &telemetry_.registry());
    tap_ = std::make_unique<analyzer::WireTap>(*analyzer_);
  }
}

Instruments::~Instruments() {
  // Surface violations even when nobody polls the checkers; fatal mode has
  // already aborted at the violation site.
  const obs::InvariantAuditor* auditor = telemetry_.auditor();
  if (auditor != nullptr && !auditor->clean()) {
    std::cerr << "[rdp-audit] WARNING: " << world_name_
              << " tore down with invariant violations:\n";
    auditor->write_report(std::cerr);
  }
  if (analyzer_ != nullptr && !analyzer_->clean()) {
    std::cerr << "[rdp-analyzer] WARNING: " << world_name_
              << " tore down with conformance violations:\n";
    analyzer_->write_report(std::cerr);
  }
}

void Instruments::on_wired_send(const net::Envelope& envelope) {
  const char* name = envelope.payload->name();
  auto [it, inserted] = wired_by_type_.try_emplace(name, nullptr);
  if (inserted) {
    it->second =
        &telemetry_.registry().counter("net.wired.messages", {{"type", name}});
  }
  it->second->increment();
  if (cost_ledger_) cost_ledger_->on_wired_send(envelope);
  if (tap_) tap_->on_wired_send(envelope);
}

void Instruments::on_wireless_frame(common::SimTime at, common::MhId mh,
                                    const net::PayloadPtr& payload,
                                    bool uplink, net::FramePhase phase) {
  if (cost_ledger_) cost_ledger_->on_wireless_frame(mh, payload, uplink, phase);
  if (tap_) tap_->on_wireless_frame(at, mh, payload, uplink, phase);
}

}  // namespace rdp::harness
