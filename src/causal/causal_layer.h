// Causal-order delivery for the wired network.
//
// Paper assumption 1 (Section 2) requires message delivery among the static
// hosts to be in *causal* order, and Section 5's exactly-once argument
// depends on it: the Ack forwarded by the old Mss must reach the proxy
// before the update_currentLoc sent by the new Mss, because
//   send(Ack)@Msso -> send(deregAck)@Msso -> recv@Mssn -> send(updateCurrl)@Mssn.
// A per-link FIFO network does not give this (the two messages travel on
// different links), so we implement the point-to-point causal ordering
// algorithm of Raynal, Schiper & Toueg (IPL 1991):
//
//   * every node i keeps SENT[n][n], where SENT[k][l] counts the messages
//     k sent to l that i knows about, and DELIV[k], the number of messages
//     from k delivered to i;
//   * a message from i to j carries ST = SENT_i (snapshot before send);
//   * it is deliverable at j iff for all k: DELIV_j[k] >= ST[k][j];
//   * on delivery j merges ST into SENT_j, increments SENT_j[i][j] and
//     DELIV_j[i].
//
// The layer implements net::WiredTransport, so protocol code is oblivious
// to whether it is present.  Experiment E6 toggles it off to measure the
// loss of the exactly-once property.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/wired.h"

namespace rdp::causal {

using common::NodeAddress;

class CausalLayer final : public net::WiredTransport {
 public:
  explicit CausalLayer(net::WiredTransport& inner) : inner_(inner) {}

  // Fixed-universe mode, for sharded runs: the node set (and the node ->
  // matrix-index mapping) is pinned to `universe`, in order, at
  // construction.  attach() then only fills in each node's endpoint.  This
  // makes matrix indices and snapshot wire sizes a function of the universe
  // alone — the lazy attach-order indexing of the default mode would make
  // them depend on how nodes are partitioned across shards.
  CausalLayer(net::WiredTransport& inner,
              const std::vector<NodeAddress>& universe);

  ~CausalLayer() override = default;

  void attach(NodeAddress address, net::Endpoint* endpoint) override;

  using net::WiredTransport::send;
  void send(NodeAddress address_src, NodeAddress dst, net::PayloadPtr payload,
            sim::EventPriority priority) override;

  // Link-severing seam for partition faults.  A partition must cut traffic
  // *above* the causal bookkeeping: a message dropped below this layer
  // (after SENT was counted) leaves a permanent gap that wedges every
  // later message from the same sender in the receiver's buffer, so a
  // healed partition would never actually heal.  A severed send is as if
  // the protocol never spoke.  Degrade faults (loss/dup/reorder) stay at
  // the physical layer on purpose — they ablate assumption 1 outright.
  using SeverHook = std::function<bool(NodeAddress src, NodeAddress dst)>;
  void set_sever_hook(SeverHook hook) { sever_hook_ = std::move(hook); }
  [[nodiscard]] std::uint64_t severed() const { return severed_; }

  // Number of messages currently buffered waiting for causal predecessors.
  [[nodiscard]] std::size_t buffered() const;
  // Total number of messages that ever had to wait in a buffer.
  [[nodiscard]] std::uint64_t delayed_total() const { return delayed_total_; }

 private:
  // An n x n matrix in one row-major buffer: cell (k, l) is at k * n + l.
  // A snapshot is therefore one allocation, and a merge of two matrices of
  // the same width is one contiguous max over n * n cells.
  struct Matrix {
    std::size_t n = 0;
    std::vector<std::uint64_t> cells;

    [[nodiscard]] std::uint64_t at(std::size_t k, std::size_t l) const {
      return k < n && l < n ? cells[k * n + l] : 0;
    }
    std::uint64_t& cell(std::size_t k, std::size_t l) {
      return cells[k * n + l];
    }
  };

  struct CausalPayload final : net::MessageBase {
    net::PayloadPtr inner;
    Matrix sent_snapshot;
    std::size_t src_index;
    std::size_t dst_index;

    CausalPayload(net::PayloadPtr inner_in, const Matrix& snapshot,
                  std::size_t src, std::size_t dst)
        : inner(std::move(inner_in)),
          sent_snapshot(snapshot),
          src_index(src),
          dst_index(dst) {}
    [[nodiscard]] const char* name() const override { return inner->name(); }
    [[nodiscard]] std::size_t wire_size() const override {
      return inner->wire_size() + 8 * sent_snapshot.cells.size();
    }
    [[nodiscard]] std::string describe() const override {
      return inner->describe();
    }
    [[nodiscard]] const net::MessageBase& unwrap() const override {
      return inner->unwrap();
    }
  };

  // Shim endpoint registered with the inner network for each attached node.
  struct Shim final : net::Endpoint {
    CausalLayer* layer = nullptr;
    std::size_t node_index = 0;
    net::Endpoint* real = nullptr;
    void on_message(const net::Envelope& envelope) override {
      layer->on_wire_message(*this, envelope);
    }
  };

  struct NodeState {
    std::unique_ptr<Shim> shim;
    Matrix sent;                        // SENT matrix
    std::vector<std::uint64_t> deliv;   // DELIV vector
    std::deque<net::Envelope> buffer;   // undeliverable messages
  };

  std::size_t index_of(NodeAddress address);
  // Widens `m` to n x n, re-striding its rows when nodes attached since.
  static void ensure_matrix(Matrix& m, std::size_t n);
  void on_wire_message(Shim& shim, const net::Envelope& envelope);
  bool deliverable(const NodeState& node, const CausalPayload& payload) const;
  void deliver(Shim& shim, NodeState& node, const net::Envelope& envelope);
  void drain_buffer(Shim& shim, NodeState& node);

  net::WiredTransport& inner_;
  bool fixed_universe_ = false;
  std::unordered_map<NodeAddress, std::size_t> index_;
  std::vector<NodeState> nodes_;
  SeverHook sever_hook_;
  std::uint64_t severed_ = 0;
  std::uint64_t delayed_total_ = 0;
};

}  // namespace rdp::causal
