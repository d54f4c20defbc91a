#include "runtime/stopset.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "testutil.h"

namespace tn::runtime {
namespace {

using test::ip;
using test::pfx;

TEST(SharedStopSet, CoversInsertedPrefixes) {
  SharedStopSet set;
  EXPECT_FALSE(set.covers(ip("10.0.1.5")));
  set.insert(pfx("10.0.1.0/28"), 3);
  EXPECT_TRUE(set.covers(ip("10.0.1.5")));
  EXPECT_FALSE(set.covers(ip("10.0.2.5")));
  EXPECT_EQ(set.size(), 1u);
}

TEST(SharedStopSet, SlashThirtyTwoIsNotCoverage) {
  SharedStopSet set;
  set.insert(pfx("10.0.1.5/32"), 0);
  EXPECT_FALSE(set.covers(ip("10.0.1.5")));
  EXPECT_EQ(set.size(), 0u);
}

TEST(SharedStopSet, CoveredByLowerUsesSmallestSourceIndex) {
  SharedStopSet set;
  set.insert(pfx("10.0.1.0/28"), 7);
  EXPECT_TRUE(set.covered_by_lower(ip("10.0.1.5"), 8));
  EXPECT_FALSE(set.covered_by_lower(ip("10.0.1.5"), 7));
  EXPECT_FALSE(set.covered_by_lower(ip("10.0.1.5"), 3));
  // A rediscovery from an earlier target lowers the bar.
  set.insert(pfx("10.0.1.0/28"), 2);
  EXPECT_TRUE(set.covered_by_lower(ip("10.0.1.5"), 3));
}

TEST(SharedStopSet, PrefixesInDifferentShardsCoexist) {
  SharedStopSet set;
  set.insert(pfx("10.0.0.0/24"), 0);     // shard 0
  set.insert(pfx("192.168.1.0/29"), 1);  // shard 12
  set.insert(pfx("224.1.2.0/30"), 2);    // shard 14
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.covers(ip("10.0.0.7")));
  EXPECT_TRUE(set.covers(ip("192.168.1.3")));
  EXPECT_TRUE(set.covers(ip("224.1.2.1")));
}

// The hammer: many threads inserting overlapping prefixes and querying
// concurrently. Run under TSan via tools/check.sh; asserts catch lost or
// duplicated inserts and a lost minimum source index, the sanitizer catches
// races.
TEST(SharedStopSet, HammerConcurrentInsertAndCoveredByLower) {
  SharedStopSet set;
  constexpr int kThreads = 8;
  constexpr std::uint32_t kPrefixes = 400;  // distinct /28s across shards

  auto prefix_at = [](std::uint32_t i) {
    // Spread across the whole address space so every shard is exercised.
    return net::Prefix::covering(net::Ipv4Addr((i << 26) | (i << 4)), 28);
  };

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPrefixes; ++i) {
        // Threads insert each prefix in a rotated order of source indices,
        // so the minimum arrives at a different point for every prefix.
        set.insert(prefix_at(i),
                   static_cast<std::size_t>((t + i) % kThreads));
        // Interleave reads on prefixes other threads are writing: once a
        // prefix is covered at all, index kThreads is above every source.
        const net::Ipv4Addr other = prefix_at((i * 31 + 7) % kPrefixes).at(1);
        if (set.covers(other)) {
          EXPECT_TRUE(set.covered_by_lower(other, kThreads));
        }
        set.covered_by_lower(other, i);
      }
    });
  }
  for (auto& thread : pool) thread.join();

  EXPECT_EQ(set.size(), static_cast<std::size_t>(kPrefixes));
  for (std::uint32_t i = 0; i < kPrefixes; ++i) {
    const net::Ipv4Addr inside = prefix_at(i).at(1);
    ASSERT_TRUE(set.covers(inside));
    // Some thread inserted every prefix with source 0: the minimum survived.
    EXPECT_TRUE(set.covered_by_lower(inside, 1));
    EXPECT_FALSE(set.covered_by_lower(inside, 0));
  }
}

}  // namespace
}  // namespace tn::runtime
