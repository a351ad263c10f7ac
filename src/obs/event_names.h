// Stable textual names for observer-event enums, shared by every renderer
// (flight recorder, span tracer, metric labels) so artifacts agree.
#pragma once

#include <cstddef>
#include <iterator>

#include "core/events.h"
#include "obs/perf_probe.h"

namespace rdp::obs {

// One stable name per RdpObserver hook, in declaration order (core/events.h).
// The static_assert below pins this table to RdpObserver::kHookCount: adding
// a hook without naming it here (or vice versa) fails the build instead of
// silently drifting — renderers index this table by hook position.
inline constexpr const char* kHookNames[] = {
    "proxy_created",
    "proxy_deleted",
    "request_issued",
    "request_reached_proxy",
    "result_at_proxy",
    "result_forwarded",
    "result_delivered",
    "ack_forwarded",
    "request_completed",
    "reissue_exhausted",
    "request_lost",
    "arq_frame_sent",
    "arq_delivered",
    "handoff_started",
    "handoff_completed",
    "update_currentloc",
    "mh_registered",
    "stale_ack_dropped",
    "delproxy_with_pending",
    "orphaned_proxy",
    "mss_crashed",
    "mss_restarted",
    "proxy_restored",
    "request_reissued",
    "backup_promoted",
    "mss_departed",
    "mss_rejoined",
    "primary_demoted",
};
static_assert(std::size(kHookNames) ==
                  static_cast<std::size_t>(core::RdpObserver::kHookCount),
              "kHookNames must name exactly every RdpObserver hook — "
              "update obs/event_names.h when core/events.h changes");

// Name of the i-th hook in core/events.h declaration order.
[[nodiscard]] constexpr const char* hook_name(std::size_t index) {
  return index < std::size(kHookNames) ? kHookNames[index] : "?";
}

// One stable name per static profiler domain, in prof::Domain declaration
// order (obs/perf_probe.h).  Same contract as kHookNames: a new domain
// without a name here is a compile error, because the folded-stack export,
// the rdp.prof.* metric labels and the attribution tables all index this
// table by domain id.
inline constexpr const char* kDomainNames[] = {
    "root",
    "kernel",
    "timer_slab",
    "net.wired",
    "net.wireless",
    "causal",
    "arq",
    "core",
    "replication",
    "membership",
    "hook_fanout",
    "analyzer",
    "ledger",
    "codec.encode",
    "codec.decode",
    "outbox_drain",
    "barrier_wait",
};
static_assert(std::size(kDomainNames) ==
                  static_cast<std::size_t>(prof::Domain::kCount),
              "kDomainNames must name exactly every prof::Domain — "
              "update obs/event_names.h when obs/perf_probe.h changes");
// perf_probe.h mirrors the hook count instead of including core/events.h
// (it must stay dependency-free); this is where the mirror is pinned.
static_assert(prof::kHookDomainCount ==
                  static_cast<int>(core::RdpObserver::kHookCount),
              "prof::kHookDomainCount must equal RdpObserver::kHookCount — "
              "update obs/perf_probe.h when core/events.h gains a hook");

// Name of a profiler domain id: static domains from kDomainNames, per-hook
// domains (id >= Domain::kCount) as "hook:<hook name>" rendered by callers
// via hook_name(id - Domain::kCount).
[[nodiscard]] constexpr const char* domain_name(std::size_t index) {
  return index < std::size(kDomainNames) ? kDomainNames[index] : "?";
}

[[nodiscard]] constexpr const char* loss_reason_name(
    core::RequestLossReason reason) {
  switch (reason) {
    case core::RequestLossReason::kProxyGone: return "proxy-gone";
    case core::RequestLossReason::kMhLeft: return "mh-left";
    case core::RequestLossReason::kMssCrashed: return "mss-crashed";
    case core::RequestLossReason::kReissueExhausted:
      return "reissue-exhausted";
  }
  return "?";
}

}  // namespace rdp::obs
