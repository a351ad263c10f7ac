#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "common/log.h"
#include "common/pool_alloc.h"
#include "common/rng.h"
#include "common/time.h"

namespace rdp::common {
namespace {

TEST(Ids, DefaultIsInvalid) {
  MhId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, MhId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  MhId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(MssId(1), MssId(2));
  EXPECT_EQ(MssId(3), MssId(3));
  EXPECT_NE(MssId(3), MssId(4));
}

TEST(Ids, Printing) {
  EXPECT_EQ(MhId(4).str(), "Mh4");
  EXPECT_EQ(MssId(2).str(), "Mss2");
  EXPECT_EQ(MhId().str(), "Mh<none>");
}

TEST(Ids, DistinctTypesHashIndependently) {
  std::unordered_set<MhId> mhs{MhId(1), MhId(2), MhId(1)};
  EXPECT_EQ(mhs.size(), 2u);
}

TEST(RequestId, EmbedsMhAndSeq) {
  RequestId r(MhId(3), 9);
  EXPECT_EQ(r.mh(), MhId(3));
  EXPECT_EQ(r.seq(), 9u);
  EXPECT_TRUE(r.valid());
  EXPECT_FALSE(RequestId().valid());
}

TEST(RequestId, OrderingAndUniqueness) {
  std::set<RequestId> ids;
  for (std::uint32_t mh = 0; mh < 10; ++mh) {
    for (std::uint32_t seq = 0; seq < 10; ++seq) {
      ids.insert(RequestId(MhId(mh), seq));
    }
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::millis(1), Duration::micros(1000));
  EXPECT_EQ(Duration::seconds(1) + Duration::millis(500),
            Duration::micros(1'500'000));
  EXPECT_EQ(Duration::seconds(2) - Duration::seconds(1), Duration::seconds(1));
  EXPECT_EQ(Duration::millis(10) * 3, Duration::millis(30));
  EXPECT_EQ(Duration::millis(10) / 2, Duration::millis(5));
  EXPECT_DOUBLE_EQ(Duration::seconds(3) / Duration::seconds(2), 1.5);
}

TEST(Time, DurationComparison) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_GE(Duration::zero(), Duration::zero());
}

TEST(Time, SimTimeArithmetic) {
  SimTime t = SimTime::zero() + Duration::millis(5);
  EXPECT_EQ(t.count_micros(), 5000);
  EXPECT_EQ(t - SimTime::zero(), Duration::millis(5));
}

TEST(Time, FromSecondsFractional) {
  EXPECT_EQ(Duration::from_seconds(0.001), Duration::millis(1));
  EXPECT_NEAR(Duration::from_seconds(1.5).to_seconds(), 1.5, 1e-9);
}

TEST(Time, Formatting) {
  EXPECT_EQ(Duration::micros(5).str(), "5us");
  EXPECT_EQ(Duration::millis(5).str(), "5.000ms");
  EXPECT_EQ(Duration::seconds(2).str(), "2.000s");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ExponentialDuration) {
  Rng rng(17);
  double sum_s = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum_s += rng.exponential_duration(Duration::seconds(10)).to_seconds();
  }
  EXPECT_NEAR(sum_s / n, 10.0, 0.5);
}

TEST(Rng, PickIndexCoversRange) {
  Rng rng(19);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.pick_index(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng child = parent.fork();
  // The child stream should not replicate the parent stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(RDP_CHECK(false, "boom"), InvariantViolation);
  EXPECT_NO_THROW(RDP_CHECK(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    RDP_CHECK(1 == 2, "numbers drifted");
    FAIL() << "should have thrown";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numbers drifted"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Logger, ParseLevelNamesAndDigits) {
  const LogLevel fallback = LogLevel::kWarn;
  EXPECT_EQ(Logger::parse_level("debug", fallback), LogLevel::kDebug);
  EXPECT_EQ(Logger::parse_level("INFO", fallback), LogLevel::kInfo);
  EXPECT_EQ(Logger::parse_level("Warning", fallback), LogLevel::kWarn);
  EXPECT_EQ(Logger::parse_level("error", fallback), LogLevel::kError);
  EXPECT_EQ(Logger::parse_level("off", fallback), LogLevel::kOff);
  EXPECT_EQ(Logger::parse_level("none", fallback), LogLevel::kOff);
  EXPECT_EQ(Logger::parse_level("0", fallback), LogLevel::kDebug);
  EXPECT_EQ(Logger::parse_level("4", fallback), LogLevel::kOff);
  // Garbage, empty and null all fall back.
  EXPECT_EQ(Logger::parse_level("verbose", fallback), fallback);
  EXPECT_EQ(Logger::parse_level("7", fallback), fallback);
  EXPECT_EQ(Logger::parse_level("", fallback), fallback);
  EXPECT_EQ(Logger::parse_level(nullptr, fallback), fallback);
}

TEST(Logger, LevelGateAndSink) {
  Logger logger;
  logger.set_level(LogLevel::kInfo);
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  logger.write(LogLevel::kDebug, "filtered");
  logger.write(LogLevel::kInfo, "kept");
  logger.write(LogLevel::kError, "kept too");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "kept");
  EXPECT_EQ(lines[1], "kept too");
}

TEST(Logger, InjectedClockStampsLines) {
  Logger logger;
  logger.set_level(LogLevel::kDebug);
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  SimTime now = SimTime::from_micros(1500);
  logger.set_clock([&now] { return now; });
  logger.write(LogLevel::kInfo, "hello");
  now = SimTime::from_micros(2'000'000);
  logger.write(LogLevel::kInfo, "later");
  logger.set_clock(nullptr);  // back to unstamped
  logger.write(LogLevel::kInfo, "plain");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "[t=1.500ms] hello");
  EXPECT_EQ(lines[1], "[t=2000.000ms] later");
  EXPECT_EQ(lines[2], "plain");
}

TEST(PoolAlloc, RecyclesBlocksThroughTheMagazine) {
  // Covered classes round up; oversize requests fall through to the heap.
  EXPECT_EQ(pool::class_of(1), 0);
  EXPECT_EQ(pool::class_of(32), 0);
  EXPECT_EQ(pool::class_of(33), 1);
  EXPECT_EQ(pool::class_of(513), pool::class_of(768));
  EXPECT_EQ(pool::class_of(4096), pool::kClassCount - 1);
  EXPECT_EQ(pool::class_of(4097), -1);

  // A message-sized block and a causal-piggyback-sized one (over 512 B).
  for (const std::size_t bytes : {std::size_t{96}, std::size_t{3000}}) {
    void* a = pool::allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % pool::kMaxAlign, 0u);
    pool::deallocate(a, bytes);
#if !defined(RDP_POOL_PASSTHROUGH)
    // LIFO magazine: a freed block is the next one handed out, so the
    // steady-state message path cycles through a handful of warm blocks.
    void* b = pool::allocate(bytes);
    EXPECT_EQ(b, a);
    pool::deallocate(b, bytes);
#endif
  }
}

TEST(PoolAlloc, AllocateSharedUsesOnePooledBlock) {
  // The message path's shape: payload + control block in one pooled
  // allocation, recycled when the last reference drops.
  struct Payload {
    std::uint64_t a = 1;
    std::uint64_t b = 2;
  };
  std::shared_ptr<const Payload> p =
      std::allocate_shared<const Payload>(PoolAllocator<const Payload>());
  EXPECT_EQ(p->a, 1u);
  std::weak_ptr<const Payload> w = p;
  p.reset();
  EXPECT_TRUE(w.expired());
}

// --- FlatMap against std::unordered_map --------------------------------------

// The splitmix64 finalizer FlatMap hashes with; used only to pick keys whose
// home slots sit at the end of small tables, so probe runs wrap around.
std::uint64_t splitmix_finalizer(std::uint64_t key) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  return key ^ (key >> 31);
}

// Keys for the differential test: small sequential ids, keys that cluster
// on the last slots of 16-, 32- and 64-slot tables (so erase shifts entries
// back across the table's end), and wide random keys.
std::vector<std::uint64_t> flat_map_test_keys(Rng& rng) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 48; ++k) keys.push_back(k);
  for (const std::uint64_t slots : {16u, 32u, 64u}) {
    int found = 0;
    for (std::uint64_t k = 1000; found < 12; ++k) {
      if ((splitmix_finalizer(k) & (slots - 1)) >= slots - 2) {
        keys.push_back(k);
        ++found;
      }
    }
  }
  for (int i = 0; i < 24; ++i) {
    std::uint64_t k = rng.next_u64();
    if (k == FlatMap<int>::kEmpty) k = 0;
    keys.push_back(k);
  }
  return keys;
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomOps) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const std::vector<std::uint64_t> keys = flat_map_test_keys(rng);
    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = keys[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
      const std::int64_t kind = rng.uniform_int(0, 999);
      if (kind < 450) {
        auto [value, inserted] = map.try_emplace(key);
        const auto [it, ref_inserted] = reference.try_emplace(key, 0);
        ASSERT_EQ(inserted, ref_inserted) << "seed " << seed << " op " << op;
        ASSERT_EQ(*value, it->second);
        *value = it->second = static_cast<std::uint64_t>(op);
      } else if (kind < 700) {
        ASSERT_EQ(map.erase(key), reference.erase(key) == 1)
            << "seed " << seed << " op " << op;
      } else if (kind == 999) {
        map.clear();
        reference.clear();
      } else {
        const std::uint64_t* value = std::as_const(map).find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(value != nullptr, it != reference.end())
            << "seed " << seed << " op " << op;
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second);
        }
        ASSERT_EQ(map.contains(key), value != nullptr);
      }
      ASSERT_EQ(map.size(), reference.size());
    }
    for (const auto& [key, value] : reference) {
      ASSERT_NE(map.find(key), nullptr);
      EXPECT_EQ(*map.find(key), value);
    }
    EXPECT_EQ(map.find(FlatMap<int>::kEmpty), nullptr);
    EXPECT_FALSE(map.erase(FlatMap<int>::kEmpty));
  }
}

}  // namespace
}  // namespace rdp::common
