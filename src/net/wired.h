// The static (wired) network connecting Mss's and servers.
//
// Paper assumption 1 (Section 2): "Communication among the Mss's is
// reliable and message delivery is in causal order."  This class provides
// the reliable half with per-link FIFO ordering and a configurable latency
// model; causal order across links is layered on top by causal::CausalLayer
// (and can be disabled to reproduce the at-least-once-only behaviour in
// experiment E6).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace rdp::net {

class ShardRouter;

// Receiving side of a wired endpoint (an Mss or a server).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Envelope& envelope) = 0;
};

// Abstract send/attach interface so the causal layer can interpose
// transparently between protocol code and the physical network.
class WiredTransport {
 public:
  virtual ~WiredTransport() = default;

  virtual void attach(NodeAddress address, Endpoint* endpoint) = 0;

  virtual void send(NodeAddress src, NodeAddress dst, PayloadPtr payload,
                    sim::EventPriority priority) = 0;

  void send(NodeAddress src, NodeAddress dst, PayloadPtr payload) {
    send(src, dst, std::move(payload), sim::EventPriority::kNormal);
  }
};

struct WiredConfig {
  // One-way latency is uniform in [base_latency, base_latency + jitter].
  common::Duration base_latency = common::Duration::millis(5);
  common::Duration jitter = common::Duration::millis(5);
};

// Fault-injection seam (src/fault): decided per message handed to send().
// The hook sits at the *physical* layer, below causal::CausalLayer, so an
// injected drop/duplicate/reorder ablates assumption 1 outright (a dropped
// message is gone; the causal layer will buffer its successors forever).
// Partition faults are the exception: when causal order is on they sever
// links above the causal layer (CausalLayer::set_sever_hook) so that a
// healed partition actually heals.
struct FaultDecision {
  bool drop = false;  // lose the message entirely
  int duplicates = 0; // deliver this many extra copies, each with fresh latency
  // Extra delay added to the original copy.  A non-zero value bypasses the
  // per-link FIFO bookkeeping, so the message may arrive after messages
  // sent later on the same link (bounded reorder).
  common::Duration extra_delay = common::Duration::zero();
};

class WiredNetwork final : public WiredTransport {
 public:
  // Called for every message handed to send(); used by stats collectors.
  using SendObserver = std::function<void(const Envelope&)>;
  using FaultHook = std::function<FaultDecision(
      NodeAddress src, NodeAddress dst, const PayloadPtr& payload)>;

  WiredNetwork(sim::Simulator& simulator, common::Rng rng, WiredConfig config);

  void attach(NodeAddress address, Endpoint* endpoint) override;

  using WiredTransport::send;
  // Reliable delivery with per-(src,dst) FIFO order.  The destination must
  // be attached no later than delivery time.
  void send(NodeAddress src, NodeAddress dst, PayloadPtr payload,
            sim::EventPriority priority) override;

  void add_send_observer(SendObserver observer) {
    observers_.push_back(std::move(observer));
  }

  // Install (or clear, with nullptr) the fault-injection hook.  Fault
  // plans are a single-kernel feature: installing a hook in shard mode is
  // refused.
  void set_fault_hook(FaultHook hook);

  // Switch this instance into sharded operation.  A send takes the same
  // path in both modes; shard mode changes only where the latency jitter
  // comes from (the counter-keyed hash under `draw_seed`, independent of
  // the shard layout) and how the arrival is scheduled (through `router`,
  // not on the local simulator).  Refused once a fault hook is installed.
  void enable_shard_mode(ShardRouter* router, std::uint64_t draw_seed);

  // Arrival of `envelope` (both modes): hand it to its attached endpoint.
  // In shard mode the router calls this on the destination's shard.
  void deliver_injected(const Envelope& envelope);

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }
  [[nodiscard]] std::uint64_t faults_dropped() const { return faults_dropped_; }
  [[nodiscard]] std::uint64_t faults_duplicated() const {
    return faults_duplicated_;
  }
  [[nodiscard]] std::uint64_t faults_reordered() const {
    return faults_reordered_;
  }

 private:
  // Key of the (src, dst) link in the per-link maps.
  static std::uint64_t link_key(NodeAddress src, NodeAddress dst) {
    return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
  }

  // One-way latency.  Single kernel: the next draw of the network's rng.
  // Shard mode: draw `stream_seq` of the link's keyed stream `stream_key`.
  common::Duration sample_latency(std::uint64_t stream_key = 0,
                                  std::uint64_t stream_seq = 0);

  sim::Simulator& simulator_;
  common::Rng rng_;
  WiredConfig config_;
  ShardRouter* router_ = nullptr;  // non-null iff shard mode
  std::uint64_t draw_seed_ = 0;
  std::unordered_map<NodeAddress, Endpoint*> endpoints_;
  common::FlatMap<common::SimTime> last_arrival_;
  // Per-link message counters, shard mode only: the counter doubles as the
  // latency draw index and the canonical stream sequence.
  common::FlatMap<std::uint64_t> stream_seq_;
  std::vector<SendObserver> observers_;
  FaultHook fault_hook_;
  std::uint64_t sent_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t faults_dropped_ = 0;
  std::uint64_t faults_duplicated_ = 0;
  std::uint64_t faults_reordered_ = 0;
};

}  // namespace rdp::net
