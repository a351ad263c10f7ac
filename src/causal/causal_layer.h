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
//   * a message from i to j carries ST = SENT_i as it was before the send;
//   * it is deliverable at j iff for all k: DELIV_j[k] >= ST[k][j];
//   * on delivery j max-merges ST into SENT_j, counts the message in
//     SENT_j[i][j] and increments DELIV_j[i].
//
// Differential piggyback.  ST is not sent whole.  Following the
// differential vector clocks of Singhal & Kshemkalyani (IPL 1992), applied
// to SENT, a message from i to j carries only the cells of SENT_i that
// changed since i's previous message to j, as (cell, count) entries.  Node
// i stamps a cell from its own change clock whenever the cell's count
// rises, keeps its cells in a list ordered by stamp (newest first), and
// remembers per destination the clock at its last send there; collecting
// a message's entries walks exactly the changed cells.  The receiver checks
// the entries in its own column against DELIV and max-merges every entry.
//
// Why the delivery decisions are exactly whole-matrix RST's:
//   * a cell a message leaves out holds the value it had in the previous
//     message on the same link i -> j;
//   * every message on a link after the first carries the link's own cell
//     ST[i][j], which rose when the previous message was sent, so a message
//     is deliverable only after its predecessor on the link: each link
//     delivers in send order even when the wire reorders;
//   * that predecessor's full ST passed the DELIV check (DELIV only grows)
//     and was merged into SENT_j, so the cells left out pass the check and
//     change nothing in the merge.  The first message on a link carries
//     every nonzero cell, which is the whole matrix.
//
// Assumptions: the transport below delivers every message exactly once.
// Whole-matrix RST needs that too (a lost message leaves a gap that wedges
// its link), and the differential form leans on it once more: a duplicate
// would pass for its link's next message, so the cells a later message
// leaves out might never have been checked.  Only wire duplication can
// tell the two forms apart.  Fault plans that degrade the wire therefore
// run with causal order off; partitions sever above the layer
// (set_sever_hook) and leave no gap.
//
// Wire size: the inner message, a 4-byte entry count, and per entry a
// 4-byte cell index (16-bit sender and receiver indices, so at most 65536
// nodes) and the 8-byte count.
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

#include "common/pool_alloc.h"
#include "net/wired.h"

namespace rdp::causal {

using common::NodeAddress;

class CausalLayer final : public net::WiredTransport {
 public:
  explicit CausalLayer(net::WiredTransport& inner) : inner_(inner) {}

  // Fixed-universe mode, for sharded runs: the node set (and the node ->
  // index mapping) is pinned to `universe`, in order, at construction.
  // attach() then only fills in each node's endpoint.  This makes the cell
  // indices a message carries a function of the universe alone — the lazy
  // attach-order indexing of the default mode would make them depend on
  // how nodes are partitioned across shards.
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
  // A cell index packs the sender and receiver indices into 16 bits each.
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 16;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // One piggybacked SENT cell: `from` sent `count` messages to `to`, with
  // cell = (from << 16) | to.
  struct Entry {
    std::uint32_t cell;
    std::uint64_t count;
  };
  // Pooled only up to the pool's largest size class, 512 B (32 entries); a
  // longer piggyback falls through to operator new.  Those buffers are
  // nearly all of the layer's allocations: at seed 101, 206,509 of 242,502
  // sends on campus_causal and 134,284 of 303,800 on lossy_arq exceed it.
  using Entries = std::vector<Entry, common::PoolAllocator<Entry>>;

  struct CausalPayload final : net::MessageBase {
    net::PayloadPtr inner;
    Entries entries;      // the cells in dst's column come first
    std::size_t column;   // how many entries are in dst's column
    std::size_t src_index;
    std::size_t dst_index;

    CausalPayload(net::PayloadPtr inner_in, Entries entries_in,
                  std::size_t column_in, std::size_t src, std::size_t dst)
        : inner(std::move(inner_in)),
          entries(std::move(entries_in)),
          column(column_in),
          src_index(src),
          dst_index(dst) {}
    [[nodiscard]] const char* name() const override { return inner->name(); }
    [[nodiscard]] std::size_t wire_size() const override {
      return inner->wire_size() + 4 + 12 * entries.size();
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

  // Where a node's SENT cell sits in its recency list: `stamp` is the
  // node's change clock when the count last rose (0 while it is 0);
  // prev/next chain the node's nonzero cells newest stamp first.
  struct Recency {
    std::uint64_t stamp = 0;
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };

  struct NodeState {
    std::unique_ptr<Shim> shim;
    // SENT, indexed by link id.  The counts are apart from the list so the
    // merge, which mostly finds nothing new, compares a dense array.
    std::vector<std::uint64_t> sent;
    std::vector<Recency> recency;
    std::uint32_t newest = kNone;          // link id of the newest stamp
    std::uint64_t clock = 0;               // last stamp handed out
    std::vector<std::uint64_t> sent_upto;  // clock at the last send, per dst
    std::vector<std::uint64_t> deliv;      // DELIV vector
    std::deque<net::Envelope> buffer;      // undeliverable messages
  };

  std::size_t index_of(NodeAddress address);
  // Dense id of cell (k, l), numbered in order of first use in this layer.
  std::uint32_t link_id(std::size_t k, std::size_t l);
  // Re-strides the (k, l) -> link id index for `n` nodes.
  void widen_links(std::size_t n);
  // Sizes `node`'s per-link arrays for every link id handed out so far.
  void grow(NodeState& node) const;
  // Raises `node`'s SENT cell `link` (sized, below `count`) to `count` and
  // stamps it newest.
  static void raise(NodeState& node, std::uint32_t link, std::uint64_t count);
  void on_wire_message(Shim& shim, const net::Envelope& envelope);
  static bool deliverable(const NodeState& node, const CausalPayload& payload);
  void deliver(Shim& shim, NodeState& node, const net::Envelope& envelope);
  void drain_buffer(Shim& shim, NodeState& node);

  net::WiredTransport& inner_;
  bool fixed_universe_ = false;
  std::unordered_map<NodeAddress, std::size_t> index_;
  std::vector<NodeState> nodes_;
  // Link ids let per-node SENT state grow with the links in use instead of
  // with n^2.  They are local to this layer: the wire carries cell indices.
  std::vector<std::uint32_t> link_of_;  // (k * links_width_ + l) -> link id
  std::size_t links_width_ = 0;
  std::vector<std::uint32_t> link_cell_;  // link id -> cell index
  // Scratch of the send and of the delivery in progress.
  struct Rise {
    std::uint32_t link;
    std::uint64_t count;
  };
  std::vector<Entry> scratch_;
  std::vector<Rise> rising_;
  SeverHook sever_hook_;
  std::uint64_t severed_ = 0;
  std::uint64_t delayed_total_ = 0;
};

}  // namespace rdp::causal
