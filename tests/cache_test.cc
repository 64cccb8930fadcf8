/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace {

using namespace corona;
using cache::Cache;
using cache::CacheConfig;

TEST(CacheConfig, Table1Geometries)
{
    EXPECT_EQ(cache::l1iConfig().capacity_bytes, 16u * 1024);
    EXPECT_EQ(cache::l1iConfig().associativity, 4u);
    EXPECT_EQ(cache::l1dConfig().capacity_bytes, 32u * 1024);
    EXPECT_EQ(cache::l2Config().capacity_bytes, 4ull << 20);
    EXPECT_EQ(cache::l2Config().associativity, 16u);
    EXPECT_EQ(cache::l2SimConfig().capacity_bytes, 256u * 1024);
    EXPECT_EQ(cache::l2SimConfig().line_bytes, 64u);
}

TEST(Cache, MissThenHit)
{
    Cache c(cache::l1dConfig());
    const auto first = c.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    const auto second = c.access(0x1000, false);
    EXPECT_TRUE(second.hit);
    // Same line, different offset still hits.
    EXPECT_TRUE(c.access(0x1030, false).hit);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // Tiny cache: 4 lines, 2-way, 2 sets.
    Cache c(CacheConfig{256, 2, 64});
    EXPECT_EQ(c.sets(), 2u);
    // Fill set 0 (addresses with even line index).
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    // Touch the first to make the second LRU.
    EXPECT_TRUE(c.access(0 * 64, false).hit);
    // A third line in set 0 evicts line 2 (LRU).
    c.access(4 * 64, false);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(2 * 64));
    EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionProducesWriteback)
{
    Cache c(CacheConfig{128, 1, 64}); // Direct-mapped, 2 sets.
    c.access(0 * 64, true);           // Dirty in set 0.
    const auto result = c.access(2 * 64, false); // Set 0 again.
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
    // Clean eviction has no writeback.
    const auto clean = c.access(4 * 64, false);
    EXPECT_FALSE(clean.writeback.has_value());
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c;
    c.access(0x4000, true);
    EXPECT_TRUE(c.contains(0x4000));
    EXPECT_TRUE(c.invalidateLine(0x4000).present);
    EXPECT_FALSE(c.contains(0x4000));
    EXPECT_FALSE(c.invalidateLine(0x4000).present);
    // A re-access misses (no stale hit after invalidation).
    EXPECT_FALSE(c.access(0x4000, false).hit);
}

TEST(Cache, ResidencyTracksCapacity)
{
    Cache c(CacheConfig{1024, 4, 64}); // 16 lines.
    for (topology::Addr a = 0; a < 64; ++a)
        c.access(a * 64, false);
    EXPECT_LE(c.residentLines(), 16u);
    EXPECT_EQ(c.residentLines(), 16u);
}

TEST(Cache, MissRateOnStreamingScan)
{
    Cache c(cache::l2SimConfig());
    // One pass over 4x the capacity: all misses.
    const std::uint64_t lines = 4 * 256 * 1024 / 64;
    for (std::uint64_t i = 0; i < lines; ++i)
        c.access(i * 64, false);
    EXPECT_DOUBLE_EQ(c.missRate(), 1.0);
    // A second pass over a small working set: all hits.
    for (int pass = 0; pass < 10; ++pass) {
        for (std::uint64_t i = 0; i < 100; ++i)
            c.access(0x80000000 + i * 64, false);
    }
    EXPECT_LT(c.missRate(), 1.0);
}

TEST(Cache, ProbeDoesNotDisturbLru)
{
    Cache c(CacheConfig{128, 2, 64}); // 1 set, 2 ways.
    c.access(0 * 64, false);
    c.access(64, false);
    // Probing line 0 must not refresh it.
    EXPECT_TRUE(c.contains(0));
    c.access(2 * 64, false); // Evicts line 0 (LRU despite the probe).
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(CacheConfig{0, 4, 64}), std::invalid_argument);
    EXPECT_THROW(Cache(CacheConfig{1024, 0, 64}), std::invalid_argument);
    // 1024 B / 64 B = 16 lines; 5 ways does not divide.
    EXPECT_THROW(Cache(CacheConfig{1024, 5, 64}), std::invalid_argument);
    // 32 B holds no 64 B line: zero sets would divide by zero.
    EXPECT_THROW(Cache(CacheConfig{32, 1, 64}), std::invalid_argument);
    // The same rule, without building a cache.
    EXPECT_EQ(geometryError(CacheConfig{1024, 4, 64}), nullptr);
    EXPECT_NE(geometryError(CacheConfig{1024, 5, 64}), nullptr);
}

} // namespace
