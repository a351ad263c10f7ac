// Mobile Support Station (§2, §3).
//
// An Mss serves one cell, keeps the pref of every local mobile host (the
// pref table's keys are the paper's `local_Mhs` list), hosts proxy
// objects, relays requests and Acks between its local Mhs and their
// proxies, executes the Hand-off protocol of §3.2, and implements the RKpR
// half of the proxy-deletion handshake of §3.3.
//
// Mss's "are assumed not to fail" (§2) in the paper; this implementation
// drops the assumption.  The fault-injection subsystem (src/fault) can
// crash() an Mss — losing every volatile proxy, the pref table and all
// in-flight hand-offs, and deafening it on both networks — and restart()
// it later.  An Mss wired to a ProxyCheckpointStore restores its proxies
// from stable storage on restart; the Mh-side re-issue extension
// (RdpConfig::mh_reissue) covers everything the checkpoint cannot.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arq/receiver.h"
#include "common/flat_map.h"
#include "core/checkpoint.h"
#include "core/messages.h"
#include "core/proxy.h"
#include "core/replication_hook.h"
#include "core/runtime.h"

namespace rdp::core {

class Mss final : public net::Endpoint,
                  public net::UplinkReceiver,
                  public ProxyHost {
 public:
  Mss(Runtime& runtime, MssId id, CellId cell, NodeAddress address);
  ~Mss() override = default;

  Mss(const Mss&) = delete;
  Mss& operator=(const Mss&) = delete;

  [[nodiscard]] MssId id() const { return id_; }
  [[nodiscard]] CellId cell() const { return cell_; }
  [[nodiscard]] NodeAddress address() const { return address_; }

  // --- introspection (tests) ---
  [[nodiscard]] bool is_local(MhId mh) const {
    return prefs_.contains(mh.value());
  }
  [[nodiscard]] std::size_t proxy_count() const { return proxies_.size(); }
  [[nodiscard]] const Pref* pref_of(MhId mh) const;
  [[nodiscard]] const Proxy* proxy(ProxyId id) const;
  // Null unless RdpConfig::arq is enabled.
  [[nodiscard]] const arq::ArqReceiver* arq_receiver() const {
    return arq_.get();
  }

  // --- crash / recovery (fault-injection subsystem) ---
  // Opt-in stable storage: when set, every proxy state change is
  // checkpointed and restart() restores the durable records.
  void set_checkpoint_store(ProxyCheckpointStore* store) {
    checkpoint_store_ = store;
  }
  // Fail-stop crash: volatile state (proxies, prefs, local_Mhs, pending
  // hand-offs, cached results) is lost and all traffic is dropped until
  // restart().  Pending requests at proxies without a durable checkpoint
  // are reported lost (RequestLossReason::kMssCrashed).
  void crash();
  // Come back up; restores proxies from the checkpoint store if wired.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  // --- primary/backup replication (src/replication) ---
  // Opt-in hook: when set, every proxy mutation/erase is reported, crash
  // and restart are signalled, and unrecognised wired messages are offered
  // to the hook before being counted unknown.
  void set_replication(ReplicationHook* hook) { replication_ = hook; }
  // Re-create a proxy from a replicated record under a *fresh local id*
  // (the record's id belongs to the dead primary's namespace).  Used by a
  // promoting backup; emits on_proxy_restored and re-drives server queries
  // for requests whose results died with the primary.
  Proxy& adopt_proxy(const ProxyCheckpoint& record);
  // Tear down an adopted proxy whose repair lost (Nack) or never resolved
  // (replication resolve watchdog).  Accounts the pending requests as lost
  // unless the Mh re-issue watchdog owns re-driving them.
  void drop_adopted_proxy(ProxyId proxy);
  // Snapshot every live proxy (shadow-table resync after a backup restart).
  [[nodiscard]] std::vector<ProxyCheckpoint> checkpoint_all() const;
  // Drop every live proxy because this (still-running) Mss was fenced off
  // the replication ring: it stayed departed past the threshold while a
  // chain member promoted its shadows, so the adopted incarnations own the
  // requests now.  Returns the number of proxies dropped.
  std::size_t demote_proxies();

  // net::Endpoint — wired traffic.
  void on_message(const net::Envelope& envelope) override;

  // net::UplinkReceiver — wireless traffic from local mobile hosts.
  void on_uplink(MhId from, const net::PayloadPtr& payload) override;

  // ProxyHost — messages from a co-located proxy, no wire involved.
  void deliver_local_from_proxy(const net::PayloadPtr& payload) override;

 private:
  struct PendingHandoff {
    MssId old_mss;
    common::SimTime started;
    // Set when the Mh moved on to yet another cell before this hand-off
    // finished; the pref is then forwarded there directly.
    NodeAddress chained_to;
  };
  // Footnote-3 extension: one forwarded result this Mss retries locally.
  struct CachedResult {
    MhId mh;
    RequestId request;
    std::uint32_t result_seq = 0;
    std::string body;
    bool final = false;
    std::uint32_t attempt = 0;      // proxy-side attempt number
    int local_retries = 0;          // transmissions by this Mss
    sim::TimerHandle timer;
  };
  using Proxies = std::vector<std::unique_ptr<Proxy>>;
  using CachedResults = std::vector<CachedResult>;

  void count(const char* name) { runtime_.counters.increment(name); }

  // Post-ARQ dispatch: `payload` is a bare protocol message (never an
  // arqData wrapper) from a live Mss's perspective.
  void dispatch_uplink(MhId from, const net::PayloadPtr& payload);

  // --- uplink handlers ---
  void handle_join(MhId mh);
  void handle_leave(MhId mh);
  void handle_greet(MhId mh, MssId old_mss);
  void handle_uplink_request(MhId mh, const MsgUplinkRequest& msg);
  void handle_uplink_unsubscribe(MhId mh, const MsgUnsubscribe& msg);
  void handle_uplink_ack(MhId mh, const MsgUplinkAck& msg);

  // --- wired handlers ---
  void handle_dereg(const MsgDereg& msg, NodeAddress from);
  void handle_dereg_ack(const MsgDeregAck& msg);
  void handle_forward_request(const MsgForwardRequest& msg, NodeAddress from);
  void handle_forward_unsubscribe(const MsgForwardUnsubscribe& msg);
  void handle_result_forward(const MsgResultForward& msg);
  void handle_del_pref(const MsgDelPref& msg);
  void handle_ack_forward(const MsgAckForward& msg);
  void handle_update_currentloc(const MsgUpdateCurrentLoc& msg);
  void handle_proxy_gone(const MsgProxyGone& msg);
  void handle_pref_restore(const MsgPrefRestore& msg);
  void handle_pref_repair(const MsgPrefRepair& msg);
  void handle_pref_repair_nack(const MsgPrefRepairNack& msg);

  // --- helpers ---
  // The live proxy `id`, or null.
  [[nodiscard]] Proxy* find_proxy(ProxyId id) const;
  // Adds a proxy to proxies_ at its place in id order.
  void insert_proxy(std::unique_ptr<Proxy> proxy);
  Proxy& create_proxy(MhId mh);
  // Persist `id`'s current state to the checkpoint store, if wired.
  void checkpoint_proxy(ProxyId id);
  void route_to_proxy(const Pref& pref, net::PayloadPtr payload,
                      sim::EventPriority priority);
  // Footnote-3 extension: cache a forwarded result for local retry.
  void cache_result(const MsgResultForward& msg);
  // First cached result not below (mh, request, result_seq).
  [[nodiscard]] CachedResults::iterator cached_position(
      MhId mh, RequestId request, std::uint32_t result_seq);
  // The cached result (mh, request, result_seq), or null.
  [[nodiscard]] CachedResult* find_cached(MhId mh, RequestId request,
                                          std::uint32_t result_seq);
  void arm_result_cache_timer(MhId mh, RequestId request,
                              std::uint32_t result_seq);
  void drop_cached_results(MhId mh);
  void send_registration_ack(MhId mh);
  // Takes the pref by value: the update can run the proxy, whose messages
  // come back to this Mss.
  void send_update_currentloc(MhId mh, Pref pref);
  // Ask `dead_host`'s backup (if any) to resume delivery for `mh` via a
  // prefRepair.  `old_proxy` may be invalid when only the Mh is known.
  void request_transfer_resume(MhId mh, NodeAddress dead_host,
                               ProxyId old_proxy);
  void delete_proxy(ProxyId id, bool via_gc);
  void schedule_gc();
  void run_gc();

  Runtime& runtime_;
  const MssId id_;
  const CellId cell_;
  const NodeAddress address_;
  // Uplink ARQ endpoint (PROTOCOL.md §11); null when arq.mode == kOff.
  // Reassembles / dedupes / acks arqData frames before dispatch_uplink.
  std::unique_ptr<arq::ArqReceiver> arq_;

  // The tables keyed by MhId::value() are FlatMaps, whose entries move when
  // they grow or erase: no Pref* or other pointer into one is held across
  // an insert into or an erase from the same table.
  common::FlatMap<Pref> prefs_;  // pref per local Mh; keys are local_Mhs
  Proxies proxies_;              // live proxies, by id
  // Deleted proxy objects; create_proxy reopens one before allocating.
  Proxies retired_proxies_;
  common::FlatMap<PendingHandoff> pending_handoffs_;
  // Where each departed Mh's pref went (to chase stale deregs, §3.2 races).
  common::FlatMap<NodeAddress> departed_to_;
  std::uint32_t next_proxy_ = 0;
  bool gc_scheduled_ = false;

  // --- crash / recovery state ---
  bool crashed_ = false;
  ProxyCheckpointStore* checkpoint_store_ = nullptr;
  // Mh -> restored proxy, rebound to the pref when the Mh contacts the
  // restarted Mss again (its join/greet is the first sign of life).
  std::unordered_map<MhId, ProxyId> restored_bindings_;

  // --- replication state ---
  ReplicationHook* replication_ = nullptr;
  // Repairs that arrived while the Mh's hand-off to us was still running
  // (its pref was not here yet); applied when the deregAck lands.
  std::map<MhId, MsgPrefRepair> pending_repairs_;

  // Footnote-3 extension state (only populated when
  // config.mss_result_cache is on), by (mh, request, result_seq).
  CachedResults cached_results_;
};

}  // namespace rdp::core
