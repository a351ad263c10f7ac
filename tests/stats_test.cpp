#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/ids.h"
#include "stats/counters.h"
#include "stats/fairness.h"
#include "stats/histogram.h"
#include "stats/table.h"

namespace rdp::stats {
namespace {

TEST(Counters, IncrementAndGet) {
  CounterRegistry registry;
  EXPECT_EQ(registry.get("x"), 0u);
  registry.increment("x");
  registry.increment("x", 4);
  EXPECT_EQ(registry.get("x"), 5u);
}

TEST(Counters, SnapshotIsSortedByName) {
  CounterRegistry registry;
  registry.increment("zeta");
  registry.increment("alpha");
  auto it = registry.all().begin();
  EXPECT_EQ(it->first, "alpha");
}

TEST(Counters, Reset) {
  CounterRegistry registry;
  registry.increment("x");
  registry.reset();
  EXPECT_EQ(registry.get("x"), 0u);
}

TEST(Counters, LiteralAndStringNamesShareOneCounter) {
  static const char kName[] = "mss.requests_relayed";
  static const char kSameText[] = "mss.requests_relayed";  // another address
  CounterRegistry registry;
  registry.increment(kName);
  registry.increment(kName);
  registry.increment(kSameText, 4);
  registry.increment(std::string("mss.requests_relayed"), 10);
  EXPECT_EQ(registry.get("mss.requests_relayed"), 16u);
  EXPECT_EQ(registry.all().size(), 1u);
}

TEST(Counters, ResetForgetsCachedCounters) {
  CounterRegistry registry;
  registry.increment("arq.frames_delivered");
  registry.reset();
  registry.increment("arq.frames_delivered", 2);
  EXPECT_EQ(registry.get("arq.frames_delivered"), 2u);
  EXPECT_EQ(registry.all().size(), 1u);
}

TEST(Counters, CopiesCountIndependently) {
  CounterRegistry original;
  original.increment("arq.frames_delivered");
  CounterRegistry copy = original;
  copy.increment("arq.frames_delivered", 5);
  original.increment("arq.frames_delivered");
  EXPECT_EQ(copy.get("arq.frames_delivered"), 6u);
  EXPECT_EQ(original.get("arq.frames_delivered"), 2u);

  CounterRegistry assigned;
  assigned.increment("arq.frames_delivered", 7);
  assigned = original;
  assigned.increment("arq.frames_delivered");
  EXPECT_EQ(assigned.get("arq.frames_delivered"), 3u);
  EXPECT_EQ(original.get("arq.frames_delivered"), 2u);
}

TEST(Tally, PerKeyCountsAndTotal) {
  Tally<common::MssId> tally;
  tally.add(common::MssId(0), 3);
  tally.add(common::MssId(1));
  EXPECT_EQ(tally.get(common::MssId(0)), 3u);
  EXPECT_EQ(tally.get(common::MssId(1)), 1u);
  EXPECT_EQ(tally.get(common::MssId(2)), 0u);
  EXPECT_EQ(tally.total(), 4u);
  EXPECT_EQ(tally.values(), (std::vector<double>{3.0, 1.0}));
}

TEST(Histogram, BasicMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_NEAR(h.stddev(), 1.29099, 1e-4);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, DurationOverloadStoresMilliseconds) {
  Histogram h;
  h.add(common::Duration::millis(250));
  EXPECT_DOUBLE_EQ(h.mean(), 250.0);
}

// Named tail accessors against a known uniform grid (0..100 inserted in
// reverse, so the accessors must sort): nearest-rank puts pXX exactly at
// the value XX.
TEST(Histogram, NamedTailAccessors) {
  Histogram h;
  for (int i = 100; i >= 0; --i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.p50(), 50.0);
  EXPECT_DOUBLE_EQ(h.p90(), 90.0);
  EXPECT_DOUBLE_EQ(h.p99(), 99.0);
}

// On a heavily skewed distribution the accessors must separate: 49 fast
// samples and one huge outlier leave p50/p90 at the body while p99
// (nearest-rank: index 49 of 50) lands on the tail.
TEST(Histogram, TailAccessorsOnSkewedDistribution) {
  Histogram h;
  for (int i = 0; i < 49; ++i) h.add(1.0);
  h.add(1000.0);
  EXPECT_DOUBLE_EQ(h.p50(), 1.0);
  EXPECT_DOUBLE_EQ(h.p90(), 1.0);
  EXPECT_DOUBLE_EQ(h.p99(), 1000.0);
}

// The batch form computes the same quantiles as the per-call accessors
// (single sort) and is safe on an empty histogram.
TEST(Histogram, BatchPercentilesMatchAccessors) {
  Histogram h;
  for (int i = 100; i >= 0; --i) h.add(static_cast<double>(i));
  const std::vector<double> qs = h.percentiles({0.5, 0.9, 0.95, 0.99});
  ASSERT_EQ(qs.size(), 4u);
  EXPECT_DOUBLE_EQ(qs[0], h.p50());
  EXPECT_DOUBLE_EQ(qs[1], h.p90());
  EXPECT_DOUBLE_EQ(qs[2], h.percentile(0.95));
  EXPECT_DOUBLE_EQ(qs[3], h.p99());

  Histogram empty;
  const std::vector<double> zero = empty.percentiles({0.5, 0.99});
  EXPECT_EQ(zero, (std::vector<double>{0.0, 0.0}));
}

TEST(Fairness, JainPerfectBalance) {
  EXPECT_DOUBLE_EQ(jain_fairness({5, 5, 5, 5}), 1.0);
}

TEST(Fairness, JainFullConcentration) {
  EXPECT_NEAR(jain_fairness({10, 0, 0, 0}), 0.25, 1e-9);
}

TEST(Fairness, JainEmptyAndZeroAreNeutral) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0, 0}), 1.0);
}

TEST(Fairness, MaxToMean) {
  EXPECT_DOUBLE_EQ(max_to_mean({2, 2, 2, 2}), 1.0);
  EXPECT_DOUBLE_EQ(max_to_mean({8, 0, 0, 0}), 4.0);
}

TEST(Table, AlignedOutput) {
  Table table({"name", "value"});
  table.add_row({"short", "1"});
  table.add_row({"a-much-longer-name", "23456"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsMisshapenRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), common::InvariantViolation);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
}

}  // namespace
}  // namespace rdp::stats
