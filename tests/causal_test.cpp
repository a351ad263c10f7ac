#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "causal/causal_layer.h"
#include "causal/vector_clock.h"
#include "common/rng.h"
#include "net/wired.h"
#include "sim/simulator.h"

namespace rdp::causal {
namespace {

using common::Duration;
using common::NodeAddress;
using common::Rng;

struct TestMsg final : net::MessageBase {
  std::string tag;
  explicit TestMsg(std::string t) : tag(std::move(t)) {}
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

TEST_F(CausalTest, WireSizeIncludesMatrixOverhead) {
  build(Duration::millis(1), Duration::zero());
  std::size_t observed = 0;
  inner_->add_send_observer([&](const net::Envelope& envelope) {
    observed = envelope.payload->wire_size();
  });
  layer_->send(NodeAddress(0), NodeAddress(1),
               net::make_message<TestMsg>("x"), sim::EventPriority::kNormal);
  EXPECT_GT(observed, 64u);  // inner default 64 + matrix cells
  sim_.run();
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

// Lazy-attach mode grows every matrix when a node attaches after traffic
// has flowed.  Each message carries the n x n snapshot of the n at its
// send time, and a message stamped with the older, smaller snapshot is
// still held back until its causal predecessors arrive.
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
  EXPECT_EQ(transport.sent[m1].payload->wire_size(), inner + 8 * 2 * 2);
  EXPECT_EQ(transport.sent[m2].payload->wire_size(), inner + 8 * 2 * 2);
  EXPECT_EQ(transport.sent[x].payload->wire_size(), inner + 8 * 3 * 3);
  EXPECT_EQ(transport.sent[m3].payload->wire_size(), inner + 8 * 3 * 3);

  // m2 (2 x 2 snapshot) and m3 wait for m1 at B, whose state is 3 wide.
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
