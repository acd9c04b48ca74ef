// Tests for the content-addressed result cache: hit/miss accounting, LRU
// eviction order, byte-budget churn, collision fallback to a full operand
// compare, and a TSan hammer (CI runs this binary under ThreadSanitizer).

#include "store/result_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "rle/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

RleImage make_image(std::uint64_t seed, pos_t rows = 4, pos_t width = 512) {
  Rng rng(seed);
  RowGenParams p;
  p.width = width;
  return generate_image(rng, rows, p);
}

std::shared_ptr<const RleImage> shared_image(std::uint64_t seed) {
  return std::make_shared<const RleImage>(make_image(seed));
}

ResultKey key_of(std::uint64_t a, std::uint64_t b) {
  ResultKey k;
  k.fp_a = a;
  k.fp_b = b;
  return k;
}

// The key names one computation: the same pair under another engine or
// canonicalization setting, or the pair reversed, is different work.
TEST(ResultCache, KeyDistinguishesEngineAndCanonicalization) {
  const RleImage a = make_image(3);
  const RleImage b = make_image(4);
  const auto key = [](const RleImage& x, const RleImage& y,
                      const ImageDiffOptions& options) {
    return result_key(image_fingerprint(x), image_fingerprint(y), options);
  };
  ImageDiffOptions base;
  ImageDiffOptions other_engine = base;
  other_engine.engine = base.engine == DiffEngine::kSystolic
                            ? DiffEngine::kSequentialMerge
                            : DiffEngine::kSystolic;
  ImageDiffOptions no_canon = base;
  no_canon.canonicalize_output = !base.canonicalize_output;

  const ResultKey k = key(a, b, base);
  EXPECT_EQ(k, key(a, b, base));
  EXPECT_FALSE(k == key(a, b, other_engine));
  EXPECT_FALSE(k == key(a, b, no_canon));
  EXPECT_FALSE(k == key(b, a, base));  // order matters
}

TEST(ResultCache, DefaultKeyNamesTheDefaultEngine) {
  // A key built field by field and one built from default options agree.
  EXPECT_EQ(ResultKey{}, result_key(0, 0, ImageDiffOptions{}));
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache;
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  const ResultKey key = key_of(10, 20);
  EXPECT_EQ(cache.lookup(key, *a, *b), nullptr);

  CachedDiff result;
  result.diff = make_image(3);
  result.rows_processed = 4;
  cache.insert(key, a, b, result);

  const std::shared_ptr<const CachedDiff> hit = cache.lookup(key, *a, *b);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->diff, result.diff);
  EXPECT_EQ(hit->rows_processed, 4u);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_TRUE(s.accounted());
}

// Key equality is not enough: a key hit whose stored operands are different
// images is a fingerprint collision and must fall back to a full compare,
// then degrade to a counted miss — never a wrong answer.
TEST(ResultCache, KeyCollisionFallsBackToFullCompare) {
  ResultCache cache;
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  const ResultKey key = key_of(10, 20);
  cache.insert(key, a, b, CachedDiff{make_image(3), 4, 0});

  // Same operand *content* through different allocations: the pointer fast
  // path fails, the full compare succeeds — still a hit.
  const RleImage a_copy = make_image(1);
  const RleImage b_copy = make_image(2);
  EXPECT_NE(cache.lookup(key, a_copy, b_copy), nullptr);

  // Same key, different pixels: collision, counted, served as a miss.
  const RleImage other = make_image(99);
  EXPECT_EQ(cache.lookup(key, other, *b), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.collisions, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_TRUE(s.accounted());
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  const CachedDiff payload{make_image(50, 8, 2048), 8, 0};
  const std::size_t each = ResultCache::cost_of(payload.diff);
  CacheConfig cfg;
  cfg.capacity_bytes = 2 * each + each / 2;  // room for two, not three
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  cache.insert(key_of(1, 1), a, b, payload);
  cache.insert(key_of(2, 2), a, b, payload);
  // Touch key 1 so key 2 is the LRU tail.
  EXPECT_NE(cache.lookup(key_of(1, 1), *a, *b), nullptr);
  cache.insert(key_of(3, 3), a, b, payload);

  EXPECT_NE(cache.lookup(key_of(1, 1), *a, *b), nullptr);
  EXPECT_EQ(cache.lookup(key_of(2, 2), *a, *b), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key_of(3, 3), *a, *b), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident, 2u);
  EXPECT_TRUE(s.accounted());
}

TEST(ResultCache, ReInsertKeepsIncumbentAndRefreshesRecency) {
  ResultCache cache;
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  const ResultKey key = key_of(10, 20);
  cache.insert(key, a, b, CachedDiff{make_image(3), 4, 0});
  cache.insert(key, a, b, CachedDiff{make_image(4), 4, 0});
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 1u);  // the duplicate did not double-insert
  EXPECT_EQ(s.resident, 1u);
  const std::shared_ptr<const CachedDiff> hit = cache.lookup(key, *a, *b);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->diff, make_image(3));  // incumbent won
}

TEST(ResultCache, ByteBudgetHoldsUnderChurn) {
  CacheConfig cfg;
  cfg.capacity_bytes = 32 * 1024;
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  for (std::uint64_t i = 0; i < 200; ++i) {
    cache.insert(key_of(i, i + 1), a, b,
                 CachedDiff{make_image(300 + i, 4, 1024), 4, 0});
    (void)cache.lookup(key_of(i / 2, i / 2 + 1), *a, *b);
    const CacheStats s = cache.stats();
    ASSERT_LE(s.resident_bytes, cfg.capacity_bytes);
    ASSERT_TRUE(s.accounted());
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

// An oversized result (larger than the whole budget) must not wedge the
// cache: it is either refused or immediately evicted, and accounting holds.
TEST(ResultCache, OversizedResultDoesNotWedge) {
  CacheConfig cfg;
  cfg.capacity_bytes = 1024;
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  cache.insert(key_of(1, 2), a, b, CachedDiff{make_image(5, 32, 4096), 32, 0});
  const CacheStats s = cache.stats();
  EXPECT_TRUE(s.accounted());
  // Whatever the policy chose, the budget is respected afterwards.
  EXPECT_LE(s.resident_bytes,
            std::max(cfg.capacity_bytes,
                     ResultCache::cost_of(make_image(5, 32, 4096))));
}

// TSan hammer: concurrent lookups and inserts over a small keyspace with a
// tiny budget, so hits, misses, evictions, and recency splices all race.
TEST(ResultCache, ConcurrentLookupInsertHammer) {
  CacheConfig cfg;
  cfg.capacity_bytes = 16 * 1024;
  ResultCache cache(cfg);
  const auto a = shared_image(1);
  const auto b = shared_image(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&cache, &a, &b, t] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t k = (static_cast<std::uint64_t>(t) * 7 + i) % 16;
        const std::shared_ptr<const CachedDiff> hit =
            cache.lookup(key_of(k, k + 1), *a, *b);
        if (hit) {
          ASSERT_GT(hit->diff.height(), 0);
        } else {
          cache.insert(key_of(k, k + 1), a, b,
                       CachedDiff{make_image(500 + k, 4, 1024), 4, 0});
        }
      }
    });
  for (std::thread& th : threads) th.join();
  const CacheStats s = cache.stats();
  EXPECT_TRUE(s.accounted());
  EXPECT_GT(s.hits, 0u);
  EXPECT_LE(s.resident_bytes, cfg.capacity_bytes);
}

}  // namespace
}  // namespace sysrle
