#include "causal/causal_layer.h"

#include <algorithm>
#include <utility>

#include "obs/perf_probe.h"

namespace rdp::causal {
namespace {

constexpr std::size_t kCacheLine = 64;

}  // namespace

std::size_t CausalLayer::index_of(NodeAddress address) {
  auto it = index_.find(address);
  RDP_CHECK(it != index_.end(),
            "node not attached to causal layer: " + address.str());
  return it->second;
}

std::uint32_t CausalLayer::link_id(std::size_t k, std::size_t l) {
  std::uint32_t& id = link_of_[k * links_width_ + l];
  if (id == kNone) {
    id = static_cast<std::uint32_t>(link_cell_.size());
    link_cell_.push_back(static_cast<std::uint32_t>(k << 16 | l));
  }
  return id;
}

void CausalLayer::widen_links(std::size_t n) {
  RDP_CHECK(n <= kMaxNodes, "causal layer holds at most 65536 nodes");
  if (n <= links_width_) return;
  // Lazy attach widens geometrically, so n attaches re-stride O(log n)
  // times; a fixed universe is sized once.
  links_width_ = fixed_universe_ ? n : std::max(n, 2 * links_width_);
  link_of_.assign(links_width_ * links_width_, kNone);
  for (std::uint32_t id = 0; id < link_cell_.size(); ++id) {
    const std::uint32_t cell = link_cell_[id];
    link_of_[(cell >> 16) * links_width_ + (cell & 0xffff)] = id;
  }
}

void CausalLayer::grow(NodeState& node) const {
  node.sent.resize(link_cell_.size(), 0);
  node.recency.resize(link_cell_.size());
}

void CausalLayer::fit(NodeState& node) const {
  if (node.peers.size() < nodes_.size()) node.peers.resize(nodes_.size());
  if (node.deliv.size() < nodes_.size()) node.deliv.resize(nodes_.size(), 0);
}

void CausalLayer::raise(NodeState& node, std::uint32_t link,
                        std::uint64_t count) {
  node.sent[link] = count;
  Recency& cell = node.recency[link];
  cell.stamp = ++node.clock;
  if (node.newest == link) return;
  // Move to the front of the recency list.
  unlink(node, link);
  cell.next = node.newest;
  if (node.newest != kNone) node.recency[node.newest].prev = link;
  node.newest = link;
}

void CausalLayer::unlink(NodeState& node, std::uint32_t link) {
  Recency& cell = node.recency[link];
  if (cell.prev != kNone) {
    node.recency[cell.prev].next = cell.next;
  } else if (node.newest == link) {
    node.newest = cell.next;
  }
  if (cell.next != kNone) node.recency[cell.next].prev = cell.prev;
  cell.prev = kNone;
  cell.next = kNone;
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
  widen_links(nodes_.size());
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
  widen_links(idx + 1);
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

  NodeState& sender = nodes_[si];
  fit(sender);

  // Piggyback the cells that rose since the last send to dst and that the
  // pruning rules (header comment) keep, before counting this send, with
  // the cells in dst's column moved to the front.  The recency list holds
  // each cell once, so it bounds the count; rule (d) adds one entry.
  if (scratch_.size() <= sender.sent.size()) {
    scratch_.resize(sender.sent.size() + 1);
  }
  Entry* out = scratch_.data();
  Recency* recency = sender.recency.data();
  const std::uint64_t* sent = sender.sent.data();
  const std::uint32_t* cell_of = link_cell_.data();
  const Peer* peers = sender.peers.data();
  const std::uint64_t since = peers[di].sent_upto;
  // Each hop of the walk is a dependent load at a scattered position.
  // When the rises since the last send could touch a good share of the
  // node's cache lines, fetch all of them at once instead (the cost stays
  // within twice the rises, never O(n^2)).
  const auto* lines = reinterpret_cast<const char*>(recency);
  const std::size_t bytes = sender.recency.size() * sizeof(Recency);
  if (bytes / kCacheLine <= 2 * (sender.clock - since)) {
    for (std::size_t off = 0; off < bytes; off += kCacheLine) {
      __builtin_prefetch(lines + off);
    }
  }
  std::size_t entries = 0;
  std::size_t column = 0;
  // Rule (c) needs no l != d test: the walk only reaches cells that rose
  // since the last send to dst.
  std::uint32_t link = sender.newest;
  while (link != kNone && recency[link].stamp > since) {
    const std::uint32_t next = recency[link].next;
    const std::uint32_t cell = cell_of[link];
    const std::size_t k = cell >> 16;
    const std::size_t l = cell & 0xffff;
    if (k == si ? sent[link] <= peers[l].acked                  // (d)
                : recency[link].stamp <= peers[l].sent_upto) {  // (c)
      unlink(sender, link);
    } else if (l == di) {
      out[entries] = Entry{cell, sent[link]};
      std::swap(out[column++], out[entries++]);
    } else if (k != di) {  // (b)
      out[entries++] = Entry{cell, sent[link]};
    }
    link = next;
  }
  Peer& peer = sender.peers[di];
  if (di != si && sender.deliv[di] > peer.reported) {  // (d)
    peer.reported = sender.deliv[di];
    out[entries++] = Entry{static_cast<std::uint32_t>(di << 16 | si),
                           peer.reported};
  }
  peer.sent_upto = sender.clock;
  net::PayloadPtr wrapped = net::make_message<CausalPayload>(
      std::move(payload), Entries(out, out + entries), column, si, di);

  const std::uint32_t own = link_id(si, di);
  if (own >= sender.sent.size()) grow(sender);
  raise(sender, own, sender.sent[own] + 1);
  inner_.send(src, dst, std::move(wrapped), priority);
}

bool CausalLayer::deliverable(const NodeState& node,
                              const CausalPayload& payload) {
  // Only the cells in the receiver's column gate delivery; the cells left
  // out passed with the link's previous message, are settled, or are
  // implied by cells carried (header comment).
  for (std::size_t e = 0; e < payload.column; ++e) {
    const Entry& entry = payload.entries[e];
    if (node.deliv[entry.cell >> 16] < entry.count) return false;
  }
  return true;
}

void CausalLayer::deliver(Shim& shim, NodeState& node,
                          const net::Envelope& envelope) {
  const auto* wrapped = net::message_cast<CausalPayload>(envelope.payload);
  RDP_CHECK(wrapped != nullptr, "causal layer saw a non-causal payload");

  const std::size_t i = wrapped->src_index;
  const std::size_t j = wrapped->dst_index;
  // Max-merge in two passes: find the entries that raise a cell (most do
  // not), then stamp those.  Each cell appears once in a message.  The
  // gate entries, in j's own column, are not kept (rule (a)), and the one
  // entry in j's own row is i's DELIV count for j (rule (d)).
  const Entries& entries = wrapped->entries;
  if (rising_.size() < entries.size()) rising_.resize(entries.size());
  const std::uint32_t* link_of = link_of_.data();
  const std::size_t width = links_width_;
  std::size_t rising = 0;
  for (std::size_t e = wrapped->column; e < entries.size(); ++e) {
    const Entry& entry = entries[e];
    const std::size_t k = entry.cell >> 16;
    const std::size_t l = entry.cell & 0xffff;
    if (k == j) {
      node.peers[i].acked = std::max(node.peers[i].acked, entry.count);
      continue;
    }
    std::uint32_t link = link_of[k * width + l];
    if (link == kNone || link >= node.sent.size()) {
      // First sighting at this node (or, sharded, in this layer).
      link = link_id(k, l);
      grow(node);
    }
    rising_[rising] = Rise{link, entry.count};
    rising += entry.count > node.sent[link] ? 1 : 0;
  }
  for (std::size_t r = 0; r < rising; ++r) {
    raise(node, rising_[r].link, rising_[r].count);
  }
  node.deliv[i] += 1;

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

  fit(node);
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
