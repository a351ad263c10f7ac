// Membership view and deterministic ring repair for k-chain replication.
//
// The paper's static Mss population gains a failure-detector tier: the
// MembershipService (a wired endpoint with its own directory-allocated
// address) watches Mss liveness through the observer hooks the
// fault-injection subsystem already fires, plus suspicion reports from
// chain members whose primaries went silent while the directory still
// marks them up (the partition case the crash hooks cannot see).
//
// Membership transitions:
//
//   crash observed      -> broadcast kSuspect, arm a one-shot departure
//                          timer (departure_threshold)
//   still down on fire  -> DEPARTED: bump the membership epoch, repair the
//                          ring (recompute every live primary's chain as a
//                          pure function of the sorted live-member set),
//                          broadcast kDeparted
//   suspect report      -> probe the subject (MsgMembershipProbe) with a
//                          one-shot probe timer; an alive reply resolves
//                          the suspicion (kAlive to the reporters), a
//                          timeout departs the subject — a partitioned
//                          primary thus departs without ever crashing
//   restart / rejoin    -> if departed: re-admit, bump the epoch, repair
//                          the ring, broadcast kRejoined
//
// Determinism: every decision is a pure function of directory state plus
// the event that triggered it; chains of non-live primaries are frozen so
// surviving chain members agree on promotion order; broadcasts iterate the
// Mss set in id order.  All timers are one-shot and event-armed, so an idle
// world still drains its queue (run_to_quiescence contract).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/runtime.h"
#include "net/wired.h"
#include "replication/replication.h"
#include "sim/simulator.h"

namespace rdp::replication {

// The backup chain for `primary`: the next k members of the sorted live set
// in id-ring order, excluding the primary itself.  Pure function.
[[nodiscard]] std::vector<common::MssId> compute_chain(
    const std::vector<common::MssId>& live_sorted, common::MssId primary,
    int k);

// Gives every live primary in `directory` its compute_chain() over the live
// set.  The harness, the membership service and the sharded churn path all
// call it, so ring-repair decisions agree everywhere.
void assign_chains(core::Directory& directory, int k);

class MembershipService final : public net::Endpoint,
                                public core::RdpObserver {
 public:
  // Attaches to the wired transport at `address` and registers the address
  // with the directory so Replicators can report suspects.
  MembershipService(core::Runtime& runtime, const ReplicationConfig& config,
                    common::NodeAddress address);

  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  [[nodiscard]] common::NodeAddress address() const { return address_; }

  // --- core::RdpObserver ---
  [[nodiscard]] std::uint32_t hook_mask() const override {
    return core::hook_bit(core::Hook::kMssCrashed) |
           core::hook_bit(core::Hook::kMssRestarted);
  }
  void on_mss_crashed(common::SimTime at, common::MssId mss,
                      std::size_t proxies_lost,
                      std::size_t mhs_detached) override;
  void on_mss_restarted(common::SimTime at, common::MssId mss,
                        std::size_t proxies_restored) override;

  // --- net::Endpoint ---
  void on_message(const net::Envelope& envelope) override;

 private:
  void count(const char* name) { runtime_.counters.increment(name); }

  void depart(common::MssId mss);
  void rejoin(common::MssId mss);
  void recompute_chains();
  void broadcast(common::MssId subject, core::MembershipEventKind kind);
  void send_event(common::MssId to, common::MssId subject,
                  core::MembershipEventKind kind);
  void handle_suspect(common::MssId reporter, common::MssId subject);
  void handle_alive(common::MssId subject);

  core::Runtime& runtime_;
  const ReplicationConfig config_;
  const common::NodeAddress address_;

  // One-shot departure timers for crashed Mss's, keyed by subject.
  std::map<common::MssId, sim::TimerHandle> departure_timers_;

  // Outstanding probes, keyed by suspect; resolved by an alive reply or the
  // probe timeout.
  struct Probe {
    std::set<common::MssId> reporters;
    sim::TimerHandle timer;
  };
  std::map<common::MssId, Probe> probes_;
};

}  // namespace rdp::replication
