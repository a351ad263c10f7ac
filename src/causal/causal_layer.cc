#include "causal/causal_layer.h"

#include <algorithm>

#include "obs/perf_probe.h"

namespace rdp::causal {

std::size_t CausalLayer::index_of(NodeAddress address) {
  auto it = index_.find(address);
  RDP_CHECK(it != index_.end(),
            "node not attached to causal layer: " + address.str());
  return it->second;
}

void CausalLayer::ensure_matrix(Matrix& m, std::size_t n) {
  if (m.n >= n) return;
  std::vector<std::uint64_t> cells(n * n, 0);
  for (std::size_t k = 0; k < m.n; ++k) {
    std::copy_n(m.cells.begin() + static_cast<std::ptrdiff_t>(k * m.n), m.n,
                cells.begin() + static_cast<std::ptrdiff_t>(k * n));
  }
  m.n = n;
  m.cells = std::move(cells);
}

CausalLayer::CausalLayer(net::WiredTransport& inner,
                         const std::vector<NodeAddress>& universe)
    : inner_(inner), fixed_universe_(true) {
  nodes_.reserve(universe.size());
  for (const NodeAddress address : universe) {
    RDP_CHECK(!index_.contains(address),
              "duplicate address in causal universe: " + address.str());
    const std::size_t idx = nodes_.size();
    index_.emplace(address, idx);
    NodeState state;
    state.shim = std::make_unique<Shim>();
    state.shim->layer = this;
    state.shim->node_index = idx;
    nodes_.push_back(std::move(state));
  }
}

void CausalLayer::attach(NodeAddress address, net::Endpoint* endpoint) {
  if (fixed_universe_) {
    auto it = index_.find(address);
    RDP_CHECK(it != index_.end(),
              "address outside the causal universe: " + address.str());
    Shim& shim = *nodes_[it->second].shim;
    RDP_CHECK(shim.real == nullptr,
              "address already attached: " + address.str());
    shim.real = endpoint;
    inner_.attach(address, &shim);
    return;
  }
  RDP_CHECK(!index_.contains(address),
            "address already attached: " + address.str());
  const std::size_t idx = nodes_.size();
  index_.emplace(address, idx);
  NodeState state;
  state.shim = std::make_unique<Shim>();
  state.shim->layer = this;
  state.shim->node_index = idx;
  state.shim->real = endpoint;
  inner_.attach(address, state.shim.get());
  nodes_.push_back(std::move(state));
}

void CausalLayer::send(NodeAddress src, NodeAddress dst,
                       net::PayloadPtr payload, sim::EventPriority priority) {
  RDP_PROF_SCOPE(kCausal);
  if (sever_hook_ && sever_hook_(src, dst)) {
    // Severed link (partition fault): the message never existed as far as
    // the causal history is concerned, so post-heal traffic stays
    // deliverable.
    ++severed_;
    return;
  }
  const std::size_t si = index_of(src);
  const std::size_t di = index_of(dst);
  const std::size_t n = nodes_.size();

  NodeState& sender = nodes_[si];
  ensure_matrix(sender.sent, n);

  // Snapshot before counting this send.
  net::PayloadPtr wrapped =
      net::make_message<CausalPayload>(std::move(payload), sender.sent, si, di);
  sender.sent.cell(si, di) += 1;
  inner_.send(src, dst, std::move(wrapped), priority);
}

bool CausalLayer::deliverable(const NodeState& node,
                              const CausalPayload& payload) const {
  const Matrix& st = payload.sent_snapshot;
  const std::size_t j = payload.dst_index;
  if (j >= st.n) return true;
  for (std::size_t k = 0; k < st.n; ++k) {
    const std::uint64_t have = k < node.deliv.size() ? node.deliv[k] : 0;
    if (have < st.cells[k * st.n + j]) return false;
  }
  return true;
}

void CausalLayer::deliver(Shim& shim, NodeState& node,
                          const net::Envelope& envelope) {
  const auto* wrapped = net::message_cast<CausalPayload>(envelope.payload);
  RDP_CHECK(wrapped != nullptr, "causal layer saw a non-causal payload");

  const std::size_t n = nodes_.size();
  ensure_matrix(node.sent, n);
  if (node.deliv.size() < n) node.deliv.resize(n, 0);

  // Max-merge ST into SENT_j.  Rows are contiguous in both buffers; when
  // no node attached since the send (the widths match) the whole matrix is
  // a single run.
  const Matrix& st = wrapped->sent_snapshot;
  const bool same_width = node.sent.n == st.n;
  const std::size_t runs = same_width ? 1 : st.n;
  const std::size_t run_length = same_width ? st.n * st.n : st.n;
  for (std::size_t k = 0; k < runs; ++k) {
    std::uint64_t* into = node.sent.cells.data() + k * node.sent.n;
    const std::uint64_t* from = st.cells.data() + k * st.n;
    for (std::size_t l = 0; l < run_length; ++l) {
      into[l] = std::max(into[l], from[l]);
    }
  }
  // SENT_j[i][j] must account for this message, which the snapshot (taken
  // before the sender counted the send) does not include.  Use max() with
  // ST[i][j]+1 rather than an unconditional increment: a self-addressed
  // message is delivered on the sender's own matrix, which already counted
  // this send at send() time — incrementing again would inflate SENT[i][i]
  // past DELIV[i] and wedge every later self-send in the buffer.
  const std::uint64_t at_send = st.at(wrapped->src_index, wrapped->dst_index);
  auto& cell = node.sent.cell(wrapped->src_index, wrapped->dst_index);
  cell = std::max(cell, at_send + 1);
  node.deliv[wrapped->src_index] += 1;

  net::Envelope unwrapped = envelope;
  unwrapped.payload = wrapped->inner;
  shim.real->on_message(unwrapped);
}

void CausalLayer::drain_buffer(Shim& shim, NodeState& node) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = node.buffer.begin(); it != node.buffer.end(); ++it) {
      const auto* wrapped = net::message_cast<CausalPayload>(it->payload);
      if (deliverable(node, *wrapped)) {
        net::Envelope envelope = *it;
        node.buffer.erase(it);
        deliver(shim, node, envelope);
        progressed = true;
        break;  // iterator invalidated; rescan from the start
      }
    }
  }
}

void CausalLayer::on_wire_message(Shim& shim, const net::Envelope& envelope) {
  RDP_PROF_SCOPE(kCausal);
  NodeState& node = nodes_[shim.node_index];
  const auto* wrapped = net::message_cast<CausalPayload>(envelope.payload);
  RDP_CHECK(wrapped != nullptr, "causal layer saw a non-causal payload");

  const std::size_t n = nodes_.size();
  if (node.deliv.size() < n) node.deliv.resize(n, 0);

  if (!deliverable(node, *wrapped)) {
    node.buffer.push_back(envelope);
    ++delayed_total_;
    return;
  }
  deliver(shim, node, envelope);
  drain_buffer(shim, node);
}

std::size_t CausalLayer::buffered() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node.buffer.size();
  return total;
}

}  // namespace rdp::causal
