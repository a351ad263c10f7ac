#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <tuple>
#include <vector>

#include "causal/causal_layer.h"
#include "common/rng.h"
#include "core/messages.h"
#include "net/wired.h"
#include "sim/simulator.h"
#include "tests/vector_clock.h"

namespace rdp::causal {
namespace {

using common::Duration;
using common::NodeAddress;
using common::Rng;

struct TestMsg final : net::Message<TestMsg> {
  std::string tag;  // test bookkeeping, not sized: every TestMsg is 5 B
  explicit TestMsg(std::string t) : tag(std::move(t)) {}
  [[nodiscard]] auto fields() const { return std::tie(); }
  [[nodiscard]] const char* name() const override { return "test"; }
};

struct Recorder final : net::Endpoint {
  std::vector<std::string> tags;
  void on_message(const net::Envelope& envelope) override {
    tags.push_back(net::message_cast<TestMsg>(envelope.payload)->tag);
  }
};

// ---------------------------------------------------------------------------
// VectorClock.
// ---------------------------------------------------------------------------

TEST(VectorClock, TickAndRead) {
  VectorClock vc;
  vc.tick(2);
  vc.tick(2);
  vc.tick(0);
  EXPECT_EQ(vc.at(0), 1u);
  EXPECT_EQ(vc.at(1), 0u);
  EXPECT_EQ(vc.at(2), 2u);
  EXPECT_EQ(vc.at(99), 0u);  // out-of-range reads as zero
}

TEST(VectorClock, HappensBefore) {
  VectorClock a, b;
  a.tick(0);
  b.tick(0);
  b.tick(1);
  EXPECT_TRUE(a.happens_before(b));
  EXPECT_FALSE(b.happens_before(a));
  EXPECT_FALSE(a.happens_before(a));
}

TEST(VectorClock, Concurrency) {
  VectorClock a, b;
  a.tick(0);
  b.tick(1);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_TRUE(b.concurrent_with(a));
}

TEST(VectorClock, MergeTakesComponentwiseMax) {
  VectorClock a, b;
  a.tick(0);
  a.tick(0);
  b.tick(1);
  a.merge(b);
  EXPECT_EQ(a.at(0), 2u);
  EXPECT_EQ(a.at(1), 1u);
}

TEST(VectorClock, EqualityIgnoresTrailingZeros) {
  VectorClock a(2), b(5);
  a.tick(0);
  b.tick(0);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// CausalLayer.
// ---------------------------------------------------------------------------

class CausalTest : public ::testing::Test {
 protected:
  // Three nodes A(0), B(1), C(2).  Link latencies are controlled per test
  // by manipulating when sends happen relative to the base latency.
  void build(Duration base, Duration jitter, std::uint64_t seed = 1) {
    net::WiredConfig config;
    config.base_latency = base;
    config.jitter = jitter;
    inner_ = std::make_unique<net::WiredNetwork>(sim_, Rng(seed), config);
    layer_ = std::make_unique<CausalLayer>(*inner_);
    layer_->attach(NodeAddress(0), &a_);
    layer_->attach(NodeAddress(1), &b_);
    layer_->attach(NodeAddress(2), &c_);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::WiredNetwork> inner_;
  std::unique_ptr<CausalLayer> layer_;
  Recorder a_, b_, c_;
};

TEST_F(CausalTest, PlainDeliveryWorks) {
  build(Duration::millis(5), Duration::zero());
  layer_->send(NodeAddress(0), NodeAddress(1),
               net::make_message<TestMsg>("m1"), sim::EventPriority::kNormal);
  sim_.run();
  EXPECT_EQ(b_.tags, std::vector<std::string>{"m1"});
  EXPECT_EQ(layer_->delayed_total(), 0u);
}

// The classic triangle violation: A sends m1 to C (slow link), then m2 to B
// (fast); B reacts with m3 to C (fast).  m1 -> m3 causally, but m3 would
// arrive first without the layer.
TEST_F(CausalTest, BuffersTriangleViolation) {
  // Jitter on the inner network reorders m1 (A->C, may be slow) against m3
  // (B->C, sent after B received m2 from A; m1 -> m2 -> m3 causally).  The
  // seed scan guarantees at least one run actually produced the reordering
  // and therefore exercised the buffering path; the assertion inside the
  // loop checks that C never observes m3 before m1 regardless.
  bool found_reorder = false;
  for (std::uint64_t seed = 1; seed < 60 && !found_reorder; ++seed) {
    sim::Simulator sim;
    net::WiredConfig config;
    config.base_latency = Duration::millis(1);
    config.jitter = Duration::millis(30);
    net::WiredNetwork inner(sim, Rng(seed), config);
    CausalLayer layer(inner);
    Recorder a, c;
    struct Reactor final : net::Endpoint {
      CausalLayer* layer = nullptr;
      std::vector<std::string> tags;
      void on_message(const net::Envelope& envelope) override {
        tags.push_back(net::message_cast<TestMsg>(envelope.payload)->tag);
        // React to m2 by sending m3 (causally after m1).
        layer->send(NodeAddress(1), NodeAddress(2),
                    net::make_message<TestMsg>("m3"),
                    sim::EventPriority::kNormal);
      }
    } b;
    b.layer = &layer;
    layer.attach(NodeAddress(0), &a);
    layer.attach(NodeAddress(1), &b);
    layer.attach(NodeAddress(2), &c);

    layer.send(NodeAddress(0), NodeAddress(2), net::make_message<TestMsg>("m1"),
               sim::EventPriority::kNormal);
    layer.send(NodeAddress(0), NodeAddress(1), net::make_message<TestMsg>("m2"),
               sim::EventPriority::kNormal);
    sim.run();

    // Causal order must hold at C for every seed.
    ASSERT_EQ(c.tags.size(), 2u) << "seed " << seed;
    EXPECT_EQ(c.tags[0], "m1") << "seed " << seed;
    EXPECT_EQ(c.tags[1], "m3") << "seed " << seed;
    if (layer.delayed_total() > 0) found_reorder = true;
  }
  // At least one seed must have actually exercised the buffering path,
  // otherwise this test proves nothing.
  EXPECT_TRUE(found_reorder);
}

TEST_F(CausalTest, FifoPairStaysOrdered) {
  build(Duration::millis(1), Duration::millis(20), /*seed=*/3);
  for (int i = 0; i < 50; ++i) {
    layer_->send(NodeAddress(0), NodeAddress(1),
                 net::make_message<TestMsg>("m" + std::to_string(i)),
                 sim::EventPriority::kNormal);
  }
  sim_.run();
  ASSERT_EQ(b_.tags.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(b_.tags[i], "m" + std::to_string(i));
  }
}

// A node may address a wired message to itself (e.g. an Mss answering a
// transfer-resume it initiated while acting as its own backup).  Sender and
// receiver then share one SENT matrix: the send-time increment must not be
// repeated at delivery, or the second self-send waits on a DELIV count that
// can never be reached and wedges in the buffer forever.
TEST_F(CausalTest, BackToBackSelfSendsBothDeliver) {
  build(Duration::millis(5), Duration::zero());
  layer_->send(NodeAddress(0), NodeAddress(0), net::make_message<TestMsg>("s1"),
               sim::EventPriority::kNormal);
  sim_.run();
  layer_->send(NodeAddress(0), NodeAddress(0), net::make_message<TestMsg>("s2"),
               sim::EventPriority::kNormal);
  layer_->send(NodeAddress(0), NodeAddress(0), net::make_message<TestMsg>("s3"),
               sim::EventPriority::kNormal);
  sim_.run();
  EXPECT_EQ(a_.tags, (std::vector<std::string>{"s1", "s2", "s3"}));
  EXPECT_EQ(layer_->buffered(), 0u);
}

// Self-sends interleaved with cross-node traffic keep both orderings intact.
TEST_F(CausalTest, SelfSendMixedWithCrossTrafficStaysCausal) {
  build(Duration::millis(5), Duration::zero());
  layer_->send(NodeAddress(0), NodeAddress(0), net::make_message<TestMsg>("s1"),
               sim::EventPriority::kNormal);
  layer_->send(NodeAddress(0), NodeAddress(1), net::make_message<TestMsg>("x1"),
               sim::EventPriority::kNormal);
  sim_.run();
  layer_->send(NodeAddress(1), NodeAddress(0), net::make_message<TestMsg>("y1"),
               sim::EventPriority::kNormal);
  sim_.run();
  layer_->send(NodeAddress(0), NodeAddress(0), net::make_message<TestMsg>("s2"),
               sim::EventPriority::kNormal);
  sim_.run();
  EXPECT_EQ(a_.tags, (std::vector<std::string>{"s1", "y1", "s2"}));
  EXPECT_EQ(b_.tags, std::vector<std::string>{"x1"});
  EXPECT_EQ(layer_->buffered(), 0u);
}

TEST_F(CausalTest, ConcurrentSendersBothDeliver) {
  build(Duration::millis(5), Duration::millis(5));
  layer_->send(NodeAddress(0), NodeAddress(2), net::make_message<TestMsg>("a"),
               sim::EventPriority::kNormal);
  layer_->send(NodeAddress(1), NodeAddress(2), net::make_message<TestMsg>("b"),
               sim::EventPriority::kNormal);
  sim_.run();
  EXPECT_EQ(c_.tags.size(), 2u);
  EXPECT_EQ(layer_->buffered(), 0u);
}

// The envelope adds a 4-byte entry count plus 12 bytes (4-byte cell
// index, 8-byte count) per piggybacked SENT cell.  The first message in a
// fresh layer has no nonzero cell to carry.
TEST_F(CausalTest, WireSizeIncludesMatrixOverhead) {
  build(Duration::millis(1), Duration::zero());
  std::size_t observed = 0;
  inner_->add_send_observer([&](const net::Envelope& envelope) {
    observed = envelope.payload->wire_size();
  });
  layer_->send(NodeAddress(0), NodeAddress(1),
               net::make_message<TestMsg>("x"), sim::EventPriority::kNormal);
  EXPECT_EQ(observed, TestMsg("x").wire_size() + 4u);  // + entry count
  sim_.run();
}

// Only the cells that changed since the last send on a link ride on the
// next one: after other traffic the first A->B message carries every cell
// A keeps, and a second one right behind it carries exactly one entry, the
// link's own count SENT[A][B].
TEST_F(CausalTest, SecondBackToBackSendCarriesOneEntry) {
  build(Duration::millis(1), Duration::zero());
  std::vector<std::size_t> sizes;
  inner_->add_send_observer([&](const net::Envelope& envelope) {
    sizes.push_back(envelope.payload->wire_size());
  });
  const auto send = [&](std::uint32_t src, std::uint32_t dst) {
    layer_->send(NodeAddress(src), NodeAddress(dst),
                 net::make_message<TestMsg>("m"), sim::EventPriority::kNormal);
  };
  send(0, 2);  // A->C: SENT_A[A][C] = 1
  send(2, 0);  // C->A: SENT_C[C][A] = 1
  sim_.run();  // A delivers C's message; [C][A] is A's own column
  send(0, 1);
  send(0, 1);
  sim_.run();
  const std::size_t inner = TestMsg("").wire_size();
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[2], inner + 4 + 12 * 1);  // [A][C] only
  EXPECT_EQ(sizes[3], inner + 4 + 12 * 1);  // [A][B] only
  EXPECT_EQ(b_.tags.size(), 2u);
}

TEST_F(CausalTest, NameIsTransparent) {
  build(Duration::millis(1), Duration::zero());
  std::string seen;
  inner_->add_send_observer([&](const net::Envelope& envelope) {
    seen = envelope.payload->name();
  });
  layer_->send(NodeAddress(0), NodeAddress(1),
               net::make_message<TestMsg>("x"), sim::EventPriority::kNormal);
  EXPECT_EQ(seen, "test");
  sim_.run();
}

TEST_F(CausalTest, RejectsUnattachedSender) {
  build(Duration::millis(1), Duration::zero());
  EXPECT_THROW(layer_->send(NodeAddress(77), NodeAddress(1),
                            net::make_message<TestMsg>("x"),
                            sim::EventPriority::kNormal),
               common::InvariantViolation);
}

// A transport that holds every message until the test delivers it, so a
// test can pick the arrival order message by message.
struct ManualTransport final : net::WiredTransport {
  std::unordered_map<NodeAddress, net::Endpoint*> endpoints;
  std::vector<net::Envelope> sent;

  void attach(NodeAddress address, net::Endpoint* endpoint) override {
    endpoints[address] = endpoint;
  }
  using net::WiredTransport::send;
  void send(NodeAddress src, NodeAddress dst, net::PayloadPtr payload,
            sim::EventPriority) override {
    net::Envelope envelope;
    envelope.src = src;
    envelope.dst = dst;
    envelope.payload = std::move(payload);
    sent.push_back(std::move(envelope));
  }
  void deliver(std::size_t i) {
    endpoints.at(sent[i].dst)->on_message(sent[i]);
  }
};

// The causal envelope keeps its own rule on top of the inner message's
// derived size: a u32 entry count plus 12 B per piggybacked SENT cell.
TEST(WireSize, CausalEnvelopeAddsCountAndEntries) {
  struct Sink final : net::Endpoint {
    void on_message(const net::Envelope&) override {}
  };
  ManualTransport transport;
  CausalLayer layer(transport);
  Sink a, b;
  layer.attach(NodeAddress(0), &a);
  layer.attach(NodeAddress(1), &b);
  const core::MsgDereg dereg(common::MhId(4), common::MssId(1));
  for (int i = 0; i < 2; ++i) {
    layer.send(NodeAddress(0), NodeAddress(1),
               net::make_message<core::MsgDereg>(dereg),
               sim::EventPriority::kNormal);
  }
  layer.send(NodeAddress(1), NodeAddress(0),
             net::make_message<core::MsgDereg>(dereg),
             sim::EventPriority::kNormal);
  transport.deliver(2);
  layer.send(NodeAddress(0), NodeAddress(1),
             net::make_message<core::MsgDereg>(dereg),
             sim::EventPriority::kNormal);
  // Entries: none on a fresh layer; then the link's own count [A][B]; none
  // on B's first send (B keeps no nonzero cell and has delivered nothing);
  // once A has B's message, [A][B] and, as [B][A], the one message A has
  // delivered from B (rule (d)).
  ASSERT_EQ(transport.sent.size(), 4u);
  const std::size_t inner = dereg.wire_size();
  EXPECT_EQ(inner, 4u + 1 + 4 + 4);
  EXPECT_EQ(transport.sent[0].payload->wire_size(), inner + 4);
  EXPECT_EQ(transport.sent[1].payload->wire_size(), inner + 4 + 12 * 1);
  EXPECT_EQ(transport.sent[2].payload->wire_size(), inner + 4);
  EXPECT_EQ(transport.sent[3].payload->wire_size(), inner + 4 + 12 * 2);
}

// Lazy-attach mode widens the layer when a node attaches after traffic
// has flowed.  Each message carries the SENT cells that changed since the
// previous send on its link (a link's first message carries every cell the
// sender keeps), and a message stamped before the attach is still held
// back until its causal predecessors arrive.
TEST_F(CausalTest, NodeAttachingAfterTrafficKeepsCausalOrder) {
  ManualTransport transport;
  CausalLayer layer(transport);
  Recorder a, b, c;
  layer.attach(NodeAddress(0), &a);
  layer.attach(NodeAddress(1), &b);
  const auto send = [&](std::uint32_t src, std::uint32_t dst,
                        const std::string& tag) {
    layer.send(NodeAddress(src), NodeAddress(dst),
               net::make_message<TestMsg>(tag), sim::EventPriority::kNormal);
    return transport.sent.size() - 1;
  };
  const std::size_t inner = TestMsg("").wire_size();

  const std::size_t m1 = send(0, 1, "m1");
  const std::size_t m2 = send(0, 1, "m2");
  layer.attach(NodeAddress(2), &c);
  const std::size_t x = send(0, 2, "x");
  const std::size_t m3 = send(0, 1, "m3");
  // Entries: m1 none; m2 [A][B]; x (first on A->C) [A][B]; m3 [A][B] and
  // [A][C].
  EXPECT_EQ(transport.sent[m1].payload->wire_size(), inner + 4);
  EXPECT_EQ(transport.sent[m2].payload->wire_size(), inner + 4 + 12 * 1);
  EXPECT_EQ(transport.sent[x].payload->wire_size(), inner + 4 + 12 * 1);
  EXPECT_EQ(transport.sent[m3].payload->wire_size(), inner + 4 + 12 * 2);

  // m2 (stamped before C attached) and m3 wait for m1 at B.
  transport.deliver(m2);
  transport.deliver(m3);
  EXPECT_TRUE(b.tags.empty());
  EXPECT_EQ(layer.buffered(), 2u);
  transport.deliver(m1);
  EXPECT_EQ(b.tags, (std::vector<std::string>{"m1", "m2", "m3"}));

  // B learned from m3 that A sent x to C, so B's reply waits for x.
  const std::size_t y = send(1, 2, "y");
  transport.deliver(y);
  EXPECT_TRUE(c.tags.empty());
  transport.deliver(x);
  EXPECT_EQ(c.tags, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(layer.delayed_total(), 3u);
  EXPECT_EQ(layer.buffered(), 0u);
}

// Whole-matrix Raynal-Schiper-Toueg as the paper states it: every message
// carries the sender's full SENT matrix.  The exactness oracle for the
// layer's differential piggyback.  Matrices are sized for every node that
// will ever attach; a node not yet attached has all-zero cells, as in a
// lazily widened matrix.  Buffered messages drain with the layer's policy
// (rescan from the front after each delivery), so the delivery sequences,
// not just their causal consistency, must match.
class RstReference {
 public:
  explicit RstReference(std::size_t n) : n_(n) {}

  void attach() {
    nodes_.push_back(Node{Matrix(n_, std::vector<std::uint64_t>(n_, 0)),
                          std::vector<std::uint64_t>(n_, 0), {}, {}});
  }
  void send(std::size_t src, std::size_t dst, const std::string& tag) {
    wire_.push_back(Message{src, dst, nodes_[src].sent, tag});
    nodes_[src].sent[src][dst] += 1;
  }
  // The w-th message sent arrives at its destination.
  void arrive(std::size_t w) {
    Node& node = nodes_[wire_[w].dst];
    if (!deliverable(node, wire_[w])) {
      node.buffer.push_back(wire_[w]);
      ++delayed_;
      return;
    }
    deliver(node, wire_[w]);
    for (auto it = node.buffer.begin(); it != node.buffer.end();) {
      if (!deliverable(node, *it)) {
        ++it;
        continue;
      }
      const Message next = *it;
      node.buffer.erase(it);
      deliver(node, next);
      it = node.buffer.begin();
    }
  }
  [[nodiscard]] const std::vector<std::string>& delivered(std::size_t i) const {
    return nodes_[i].delivered;
  }
  [[nodiscard]] std::uint64_t delayed_total() const { return delayed_; }
  [[nodiscard]] std::size_t buffered() const {
    std::size_t total = 0;
    for (const Node& node : nodes_) total += node.buffer.size();
    return total;
  }

 private:
  using Matrix = std::vector<std::vector<std::uint64_t>>;
  struct Message {
    std::size_t src, dst;
    Matrix st;
    std::string tag;
  };
  struct Node {
    Matrix sent;
    std::vector<std::uint64_t> deliv;
    std::vector<Message> buffer;
    std::vector<std::string> delivered;
  };

  bool deliverable(const Node& node, const Message& m) const {
    for (std::size_t k = 0; k < n_; ++k) {
      if (node.deliv[k] < m.st[k][m.dst]) return false;
    }
    return true;
  }
  void deliver(Node& node, const Message& m) {
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t l = 0; l < n_; ++l) {
        node.sent[k][l] = std::max(node.sent[k][l], m.st[k][l]);
      }
    }
    auto& own = node.sent[m.src][m.dst];
    own = std::max(own, m.st[m.src][m.dst] + 1);
    node.deliv[m.src] += 1;
    node.delivered.push_back(m.tag);
  }

  std::size_t n_;
  std::vector<Node> nodes_;
  std::vector<Message> wire_;
  std::uint64_t delayed_ = 0;
};

// Random traffic through the layer and the whole-matrix reference side by
// side: sends between random nodes (self-sends included), arrivals in a
// random order (so messages on one link overtake each other), severed
// sends, and the last node attaching a third of the way in.  Every node
// must deliver the same messages in the same order, and the two must agree
// on how many messages waited and how many are waiting, step by step.
// With `hubs`, nodes 0 and 1 are hubs that most traffic runs to or from,
// the way a campus's Msses talk to its servers; that is where pruning
// rules (c) and (d) fire most.
void check_against_rst(std::size_t n, std::uint64_t seed, bool hubs) {
  Rng rng(seed * 1000 + n + (hubs ? 500 : 0));
  ManualTransport transport;
  CausalLayer layer(transport);
  bool sever = false;
  layer.set_sever_hook([&](NodeAddress, NodeAddress) { return sever; });
  RstReference reference(n);
  std::vector<Recorder> recorders(n);
  const auto attach = [&](std::size_t i) {
    layer.attach(NodeAddress(static_cast<std::uint32_t>(i)), &recorders[i]);
    reference.attach();
  };
  const auto pick = [&](std::size_t from, std::size_t to) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(from), static_cast<std::int64_t>(to) - 1));
  };
  std::size_t attached = 0;
  while (attached + 1 < n) attach(attached++);

  std::vector<std::size_t> in_flight;
  const int steps = 60 * static_cast<int>(n);
  for (int step = 0; step < steps; ++step) {
    if (step == steps / 3) attach(attached++);
    const double roll = rng.next_double();
    if (roll < 0.45 || in_flight.empty()) {
      const std::size_t src = pick(0, attached);
      std::size_t dst = pick(0, attached);
      if (hubs && rng.bernoulli(0.8)) dst = src < 2 ? pick(2, attached) : dst % 2;
      sever = roll < 0.05;
      const std::string tag = "m" + std::to_string(step);
      layer.send(NodeAddress(static_cast<std::uint32_t>(src)),
                 NodeAddress(static_cast<std::uint32_t>(dst)),
                 net::make_message<TestMsg>(tag), sim::EventPriority::kNormal);
      if (!sever) {
        reference.send(src, dst, tag);
        in_flight.push_back(transport.sent.size() - 1);
      }
    } else {
      const std::size_t which = pick(0, in_flight.size());
      const std::size_t w = in_flight[which];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(which));
      transport.deliver(w);
      reference.arrive(w);
    }
    ASSERT_EQ(layer.buffered(), reference.buffered()) << "step " << step;
    ASSERT_EQ(layer.delayed_total(), reference.delayed_total())
        << "step " << step;
  }
  while (!in_flight.empty()) {
    const std::size_t w = in_flight.back();
    in_flight.pop_back();
    transport.deliver(w);
    reference.arrive(w);
  }

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(recorders[i].tags, reference.delivered(i)) << "node " << i;
  }
  EXPECT_EQ(layer.delayed_total(), reference.delayed_total());
  EXPECT_GT(layer.delayed_total(), 0u);  // the buffering path ran
  EXPECT_GT(layer.severed(), 0u);
  EXPECT_EQ(layer.buffered(), 0u);
  EXPECT_EQ(reference.buffered(), 0u);
}

TEST(CausalOracle, DifferentialPiggybackMatchesWholeMatrixRst) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const std::size_t n : {3, 8, 16}) {
      SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
      check_against_rst(n, seed, /*hubs=*/false);
    }
    for (const std::size_t n : {8, 32}) {
      SCOPED_TRACE("hubs, n " + std::to_string(n) + " seed " +
                   std::to_string(seed));
      check_against_rst(n, seed, /*hubs=*/true);
    }
  }
}

// One scripted run through the layer and the whole-matrix reference side
// by side, over four nodes A(0), B(1), C(2) and D(3): every arrival checks
// that both hold back the same messages.  Each CausalTest.Rule* case below
// shows one pruning rule (causal_layer.h) drop a cell that whole-matrix
// RST would send, and a later message still held exactly where RST holds
// it.
class Scripted {
 public:
  static constexpr std::size_t kNodes = 4;
  Scripted() : layer_(transport_), reference_(kNodes), recorders_(kNodes) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      layer_.attach(NodeAddress(static_cast<std::uint32_t>(i)),
                    &recorders_[i]);
      reference_.attach();
    }
  }
  std::size_t send(std::size_t src, std::size_t dst, const std::string& tag) {
    layer_.send(NodeAddress(static_cast<std::uint32_t>(src)),
                NodeAddress(static_cast<std::uint32_t>(dst)),
                net::make_message<TestMsg>(tag), sim::EventPriority::kNormal);
    reference_.send(src, dst, tag);
    return transport_.sent.size() - 1;
  }
  void arrive(std::size_t w) {
    transport_.deliver(w);
    reference_.arrive(w);
    EXPECT_EQ(layer_.buffered(), reference_.buffered()) << "message " << w;
  }
  // How many SENT cells message `w` carries, read off its wire size.
  [[nodiscard]] std::size_t entries(std::size_t w) const {
    return (transport_.sent[w].payload->wire_size() - TestMsg("").wire_size() -
            4) / 12;
  }
  [[nodiscard]] std::size_t buffered() const { return layer_.buffered(); }
  [[nodiscard]] std::vector<std::string> delivered(std::size_t i) const {
    EXPECT_EQ(recorders_[i].tags, reference_.delivered(i)) << "node " << i;
    return recorders_[i].tags;
  }

 private:
  ManualTransport transport_;
  CausalLayer layer_;
  RstReference reference_;
  std::vector<Recorder> recorders_;
};

constexpr std::size_t kA = 0, kB = 1, kC = 2, kD = 3;

// (a) A node keeps no column of its own, but its in-flight self-send still
// gates a message that follows it around the network.
TEST_F(CausalTest, RuleAOwnColumnIsDroppedButSelfSendStillGates) {
  Scripted run;
  run.arrive(run.send(kB, kA, "m1"));  // RST: SENT_A[B][A] = 1
  const std::size_t s = run.send(kA, kA, "s");  // in flight
  const std::size_t y = run.send(kA, kC, "y");
  EXPECT_EQ(run.entries(y), 1u);  // [A][A]; RST also sends [B][A]
  run.arrive(y);
  const std::size_t z = run.send(kC, kA, "z");
  EXPECT_EQ(run.entries(z), 2u);  // [A][A] and (rule (d)) [A][C]
  run.arrive(z);                  // held: s -> y -> z
  EXPECT_EQ(run.buffered(), 1u);
  run.arrive(s);
  EXPECT_EQ(run.delivered(kA), (std::vector<std::string>{"m1", "s", "z"}));
}

// (b) A message to B skips B's own row: B counts its own sends exactly.
TEST_F(CausalTest, RuleBMessageSkipsReceiversOwnRow) {
  Scripted run;
  const std::size_t bc = run.send(kB, kC, "bc");  // in flight
  run.arrive(run.send(kB, kD, "bd"));             // D learns [B][C]
  run.arrive(run.send(kD, kA, "da"));             // A learns [B][C]
  const std::size_t ab = run.send(kA, kB, "ab");
  EXPECT_EQ(run.entries(ab), 0u);  // RST sends [B][C], [B][D] and [D][A]
  const std::size_t ac = run.send(kA, kC, "ac");
  EXPECT_EQ(run.entries(ac), 2u);  // [B][C] and [A][B]
  run.arrive(ac);                  // held: bc -> bd -> da -> ac
  run.arrive(ab);
  const std::size_t bc2 = run.send(kB, kC, "bc2");
  run.arrive(bc2);  // held behind bc on its link
  EXPECT_EQ(run.buffered(), 2u);
  run.arrive(bc);
  EXPECT_EQ(run.delivered(kC),
            (std::vector<std::string>{"bc", "ac", "bc2"}));
}

// (c) Once A has sent to C, A's next message elsewhere leaves out the cell
// [B][C] it carried there: A's own count [A][C] implies it.
TEST_F(CausalTest, RuleCCellImpliedBySendToItsColumnIsSkipped) {
  Scripted run;
  const std::size_t bc = run.send(kB, kC, "bc");  // in flight
  run.arrive(run.send(kB, kA, "ba"));             // A learns [B][C]
  const std::size_t ac = run.send(kA, kC, "ac");  // carries [B][C]
  const std::size_t ad = run.send(kA, kD, "ad");
  EXPECT_EQ(run.entries(ad), 1u);  // [A][C]; RST also sends [B][C], [B][A]
  run.arrive(ad);
  const std::size_t dc = run.send(kD, kC, "dc");
  EXPECT_EQ(run.entries(dc), 1u);  // [A][C] only
  run.arrive(dc);  // held on [A][C], as RST holds it on [B][C] too
  run.arrive(ac);  // held on [B][C]
  EXPECT_EQ(run.buffered(), 2u);
  run.arrive(bc);
  EXPECT_EQ(run.delivered(kC), (std::vector<std::string>{"bc", "ac", "dc"}));
}

// (d) B reports how many of A's messages it has delivered; A then drops
// its own cell [A][B] until it sends B another message, which the next one
// on the link again waits for.
TEST_F(CausalTest, RuleDAcknowledgedOwnRowCellIsSkipped) {
  Scripted run;
  run.arrive(run.send(kA, kB, "ab"));
  const std::size_t ba = run.send(kB, kA, "ba");
  EXPECT_EQ(run.entries(ba), 1u);  // B has delivered 1 from A, as [A][B]
  run.arrive(ba);
  const std::size_t ac = run.send(kA, kC, "ac");
  EXPECT_EQ(run.entries(ac), 0u);  // RST sends [A][B] and [B][A]
  const std::size_t ab2 = run.send(kA, kB, "ab2");
  EXPECT_EQ(run.entries(ab2), 2u);  // [A][C] and, rule (d), [B][A]
  const std::size_t ab3 = run.send(kA, kB, "ab3");
  EXPECT_EQ(run.entries(ab3), 1u);  // [A][B] = 2
  run.arrive(ab3);                  // held behind ab2
  EXPECT_EQ(run.buffered(), 1u);
  run.arrive(ab2);
  run.arrive(ac);
  EXPECT_EQ(run.delivered(kB),
            (std::vector<std::string>{"ab", "ab2", "ab3"}));
}

// Long causal chains across all three nodes stay ordered under jitter.
TEST_F(CausalTest, RelayChainPreservesOrderUnderJitter) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim;
    net::WiredConfig config;
    config.base_latency = Duration::millis(1);
    config.jitter = Duration::millis(25);
    net::WiredNetwork inner(sim, Rng(seed), config);
    CausalLayer layer(inner);

    // A emits k to both B and C; B relays each to C.  For every k, C must
    // see A's copy before B's relay (A->k precedes relay->k causally).
    struct Relay final : net::Endpoint {
      CausalLayer* layer = nullptr;
      void on_message(const net::Envelope& envelope) override {
        const auto* msg = net::message_cast<TestMsg>(envelope.payload);
        layer->send(NodeAddress(1), NodeAddress(2),
                    net::make_message<TestMsg>("relay-" + msg->tag),
                    sim::EventPriority::kNormal);
      }
    } b;
    Recorder a, c;
    b.layer = &layer;
    layer.attach(NodeAddress(0), &a);
    layer.attach(NodeAddress(1), &b);
    layer.attach(NodeAddress(2), &c);

    for (int k = 0; k < 10; ++k) {
      layer.send(NodeAddress(0), NodeAddress(2),
                 net::make_message<TestMsg>("direct-" + std::to_string(k)),
                 sim::EventPriority::kNormal);
      layer.send(NodeAddress(0), NodeAddress(1),
                 net::make_message<TestMsg>(std::to_string(k)),
                 sim::EventPriority::kNormal);
    }
    sim.run();
    ASSERT_EQ(c.tags.size(), 20u) << "seed " << seed;
    // For each k: "direct-k" must precede "relay-k".
    for (int k = 0; k < 10; ++k) {
      const auto direct = std::find(c.tags.begin(), c.tags.end(),
                                    "direct-" + std::to_string(k));
      const auto relay = std::find(c.tags.begin(), c.tags.end(),
                                   "relay-" + std::to_string(k));
      ASSERT_NE(direct, c.tags.end());
      ASSERT_NE(relay, c.tags.end());
      EXPECT_LT(direct - c.tags.begin(), relay - c.tags.begin())
          << "seed " << seed << " k " << k;
    }
  }
}

}  // namespace
}  // namespace rdp::causal
