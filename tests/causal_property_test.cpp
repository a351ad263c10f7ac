// Property check of the causal layer: under random relay cascades over a
// heavily jittered wire, no node may ever observe two causally ordered
// messages out of order.  Causality is tracked by an independent
// vector-clock oracle carried inside the test messages (the layer never
// sees it), and the same workload run WITHOUT the layer must exhibit
// violations — proving the oracle has teeth.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "causal/causal_layer.h"
#include "common/rng.h"
#include "net/wired.h"
#include "sim/simulator.h"
#include "tests/vector_clock.h"

namespace rdp::causal {
namespace {

using common::Duration;
using common::NodeAddress;
using common::Rng;

struct StampedMsg final : net::Message<StampedMsg> {
  VectorClock stamp;  // the oracle's, not carried on the wire
  int id;
  StampedMsg(VectorClock stamp_in, int id_in)
      : stamp(std::move(stamp_in)), id(id_in) {}
  [[nodiscard]] auto fields() const { return std::tie(id); }
  [[nodiscard]] const char* name() const override { return "stamped"; }
};

// A node that relays received messages onward with some probability,
// maintaining the oracle vector clock.
class RelayNode final : public net::Endpoint {
 public:
  RelayNode(std::size_t index, std::size_t node_count,
            net::WiredTransport& transport, Rng rng, double relay_probability,
            int max_sends)
      : index_(index),
        node_count_(node_count),
        transport_(transport),
        rng_(rng),
        relay_probability_(relay_probability),
        max_sends_(max_sends) {}

  void send_to(std::size_t target) {
    if (sends_ >= max_sends_) return;
    ++sends_;
    clock_.tick(index_);
    transport_.send(NodeAddress(static_cast<std::uint32_t>(index_)),
                    NodeAddress(static_cast<std::uint32_t>(target)),
                    net::make_message<StampedMsg>(clock_, next_id()),
                    sim::EventPriority::kNormal);
  }

  void on_message(const net::Envelope& envelope) override {
    const auto* msg = net::message_cast<StampedMsg>(envelope.payload);
    ASSERT_NE(msg, nullptr);
    delivered_.push_back(msg->stamp);
    clock_.merge(msg->stamp);
    clock_.tick(index_);
    if (rng_.bernoulli(relay_probability_)) {
      std::size_t target = rng_.pick_index(node_count_);
      if (target == index_) target = (target + 1) % node_count_;
      send_to(target);
    }
  }

  // Counts pairs delivered out of causal order.
  [[nodiscard]] int violations() const {
    int count = 0;
    for (std::size_t i = 0; i < delivered_.size(); ++i) {
      for (std::size_t j = i + 1; j < delivered_.size(); ++j) {
        // delivered_[j] came later; if it happens-before delivered_[i],
        // causal order was violated.
        if (delivered_[j].happens_before(delivered_[i])) ++count;
      }
    }
    return count;
  }

  [[nodiscard]] std::size_t deliveries() const { return delivered_.size(); }

 private:
  static int next_id() {
    static int counter = 0;
    return ++counter;
  }

  std::size_t index_;
  std::size_t node_count_;
  net::WiredTransport& transport_;
  Rng rng_;
  double relay_probability_;
  int max_sends_;
  int sends_ = 0;
  VectorClock clock_;
  std::vector<VectorClock> delivered_;
};

struct RunResult {
  int violations = 0;
  std::size_t deliveries = 0;
};

RunResult run_cascade(std::uint64_t seed, bool use_causal_layer) {
  constexpr std::size_t kNodes = 5;
  sim::Simulator sim;
  net::WiredConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::millis(40);  // aggressive cross-link reordering
  net::WiredNetwork wired(sim, Rng(seed), config);
  std::unique_ptr<CausalLayer> layer;
  net::WiredTransport* transport = &wired;
  if (use_causal_layer) {
    layer = std::make_unique<CausalLayer>(wired);
    transport = layer.get();
  }

  Rng rng(seed ^ 0xabcdef);
  std::vector<std::unique_ptr<RelayNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<RelayNode>(
        i, kNodes, *transport, rng.fork(), /*relay_probability=*/0.75,
        /*max_sends=*/40));
    transport->attach(NodeAddress(static_cast<std::uint32_t>(i)),
                      nodes.back().get());
  }
  // Seed the cascade: every node sends to two random peers at staggered
  // times.
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (int k = 0; k < 2; ++k) {
      const std::size_t target = (i + 1 + static_cast<std::size_t>(k)) % kNodes;
      sim.schedule(Duration::millis(static_cast<std::int64_t>(5 * i + k)),
                   [&nodes, i, target] { nodes[i]->send_to(target); });
    }
  }
  sim.run();

  RunResult result;
  for (const auto& node : nodes) {
    result.violations += node->violations();
    result.deliveries += node->deliveries();
  }
  return result;
}

TEST(CausalProperty, NoViolationsWithLayerAcrossSeeds) {
  std::size_t total_deliveries = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const RunResult result = run_cascade(seed, /*use_causal_layer=*/true);
    EXPECT_EQ(result.violations, 0) << "seed " << seed;
    total_deliveries += result.deliveries;
  }
  // The sweep must have moved substantial traffic to be meaningful.
  EXPECT_GT(total_deliveries, 1000u);
}

TEST(CausalProperty, OracleDetectsViolationsWithoutLayer) {
  int violating_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    if (run_cascade(seed, /*use_causal_layer=*/false).violations > 0) {
      ++violating_seeds;
    }
  }
  // With 40 ms jitter and dense relaying, raw FIFO links must reorder
  // causally related messages in most seeds.
  EXPECT_GE(violating_seeds, 5);
}

}  // namespace
}  // namespace rdp::causal
