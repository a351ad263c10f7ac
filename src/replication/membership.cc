#include "replication/membership.h"

#include <algorithm>

#include "obs/perf_probe.h"

namespace rdp::replication {

std::vector<common::MssId> compute_chain(
    const std::vector<common::MssId>& live_sorted, common::MssId primary,
    int k) {
  std::vector<common::MssId> chain;
  if (k <= 0 || live_sorted.empty()) return chain;
  // Start at the first live member past the primary in id order and walk
  // the ring, skipping the primary itself.
  std::size_t start = 0;
  while (start < live_sorted.size() &&
         live_sorted[start].value() <= primary.value()) {
    ++start;
  }
  for (std::size_t i = 0;
       i < live_sorted.size() && chain.size() < static_cast<std::size_t>(k);
       ++i) {
    const common::MssId member = live_sorted[(start + i) % live_sorted.size()];
    if (member == primary) continue;
    chain.push_back(member);
  }
  return chain;
}

void assign_chains(core::Directory& directory, int k) {
  const std::vector<common::MssId> all = directory.mss_ids();
  std::vector<common::MssId> live;
  live.reserve(all.size());
  for (common::MssId mss : all) {
    if (directory.mss_live(mss)) live.push_back(mss);
  }
  for (common::MssId mss : all) {
    // A non-live primary's chain is frozen: its surviving backups must
    // agree on promotion order for the incarnation that just died, not for
    // a membership it never served under.
    if (!directory.mss_live(mss)) continue;
    directory.set_backups(mss, compute_chain(live, mss, k));
  }
}

MembershipService::MembershipService(core::Runtime& runtime,
                                     const ReplicationConfig& config,
                                     common::NodeAddress address)
    : runtime_(runtime), config_(config), address_(address) {
  runtime_.wired.attach(address_, this);
  runtime_.directory.set_membership_service(address_);
}

void MembershipService::recompute_chains() {
  RDP_PROF_SCOPE(kMembership);
  assign_chains(runtime_.directory, config_.k);
}

// ---------------------------------------------------------------------------
// Crash-driven departures.
// ---------------------------------------------------------------------------

void MembershipService::on_mss_crashed(common::SimTime, common::MssId mss,
                                       std::size_t, std::size_t) {
  count("membership.suspects");
  broadcast(mss, core::MembershipEventKind::kSuspect);
  if (departure_timers_[mss].pending()) return;
  departure_timers_[mss] = runtime_.simulator.schedule(
      config_.departure_threshold,
      [this, mss] {
        if (runtime_.directory.mss_up(mss)) return;   // restarted in time
        if (runtime_.directory.mss_departed(mss)) return;
        depart(mss);
      },
      sim::EventPriority::kLow);
}

void MembershipService::on_mss_restarted(common::SimTime, common::MssId mss,
                                         std::size_t) {
  departure_timers_[mss].cancel();
  if (runtime_.directory.mss_departed(mss)) rejoin(mss);
}

void MembershipService::depart(common::MssId mss) {
  runtime_.directory.set_mss_departed(mss, true);
  runtime_.directory.bump_membership_epoch();
  count("membership.departures");
  recompute_chains();
  count("membership.rerings");
  broadcast(mss, core::MembershipEventKind::kDeparted);
  runtime_.observer.on_event({.kind = core::Hook::kMssDeparted,
                              .at = runtime_.simulator.now(),
                              .id_a = mss.value(),
                              .epoch = runtime_.directory.membership_epoch()});
}

void MembershipService::rejoin(common::MssId mss) {
  runtime_.directory.set_mss_departed(mss, false);
  runtime_.directory.bump_membership_epoch();
  count("membership.rejoins");
  recompute_chains();
  count("membership.rerings");
  broadcast(mss, core::MembershipEventKind::kRejoined);
  runtime_.observer.on_event({.kind = core::Hook::kMssRejoined,
                              .at = runtime_.simulator.now(),
                              .id_a = mss.value(),
                              .epoch = runtime_.directory.membership_epoch()});
}

// ---------------------------------------------------------------------------
// Report-driven suspicion (the partition case).
// ---------------------------------------------------------------------------

void MembershipService::on_message(const net::Envelope& envelope) {
  RDP_PROF_SCOPE(kMembership);
  const auto* report =
      net::message_cast<core::MsgMembershipReport>(envelope.payload);
  if (report == nullptr) return;  // not part of the service's vocabulary
  switch (report->kind) {
    case core::MembershipReportKind::kSuspect:
      handle_suspect(report->reporter, report->subject);
      return;
    case core::MembershipReportKind::kAlive:
      handle_alive(report->subject);
      return;
    case core::MembershipReportKind::kRejoin:
      // A fenced (demoted) primary asking back in after its partition
      // healed.  Only meaningful while it is departed yet reachable.
      if (runtime_.directory.mss_departed(report->subject) &&
          runtime_.directory.mss_up(report->subject)) {
        rejoin(report->subject);
      }
      return;
  }
}

void MembershipService::handle_suspect(common::MssId reporter,
                                       common::MssId subject) {
  if (!runtime_.directory.mss_up(subject)) return;  // the crash path owns it
  if (runtime_.directory.mss_departed(subject)) {
    // Straggling report about a settled departure: answer the reporter
    // directly so its stale shadow resolves.
    send_event(reporter, subject, core::MembershipEventKind::kDeparted);
    return;
  }
  Probe& probe = probes_[subject];
  probe.reporters.insert(reporter);
  if (probe.timer.pending()) return;  // probe already in flight
  count("membership.probes");
  broadcast(subject, core::MembershipEventKind::kSuspect);
  runtime_.wired.send(address_, runtime_.directory.mss_address(subject),
                      net::make_message<core::MsgMembershipProbe>(subject),
                      sim::EventPriority::kLow);
  probe.timer = runtime_.simulator.schedule(
      config_.probe_timeout,
      [this, subject] {
        // No alive reply within the timeout: the subject is unreachable
        // from the fixed network (partitioned) even though it never
        // crashed.  Depart it; if it is in fact fine (the probe or reply
        // was dropped), the primary-fence path demotes it and it rejoins.
        probes_.erase(subject);
        if (runtime_.directory.mss_up(subject) &&
            !runtime_.directory.mss_departed(subject)) {
          count("membership.probe_timeouts");
          depart(subject);
        }
      },
      sim::EventPriority::kLow);
}

void MembershipService::handle_alive(common::MssId subject) {
  auto it = probes_.find(subject);
  if (it == probes_.end()) return;
  count("membership.probes_answered");
  const std::set<common::MssId> reporters = std::move(it->second.reporters);
  it->second.timer.cancel();
  probes_.erase(it);
  for (common::MssId reporter : reporters) {
    send_event(reporter, subject, core::MembershipEventKind::kAlive);
  }
}

// ---------------------------------------------------------------------------
// Event fan-out.
// ---------------------------------------------------------------------------

void MembershipService::broadcast(common::MssId subject,
                                  core::MembershipEventKind kind) {
  for (common::MssId mss : runtime_.directory.mss_ids()) {
    send_event(mss, subject, kind);
  }
}

void MembershipService::send_event(common::MssId to, common::MssId subject,
                                   core::MembershipEventKind kind) {
  runtime_.wired.send(
      address_, runtime_.directory.mss_address(to),
      net::make_message<core::MsgMembershipEvent>(
          subject, runtime_.directory.mss_address(subject), kind,
          runtime_.directory.membership_epoch()),
      sim::EventPriority::kLow);
}

}  // namespace rdp::replication
