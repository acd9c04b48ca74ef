// Tests for the in-flight diff coalescer: fingerprinting, waiter
// attachment, collision defense, and ownership reassignment (promotion).

#include "service/coalescer.hpp"

#include <gtest/gtest.h>

#include "rle/ops.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

RleImage make_image(std::uint64_t seed, pos_t rows = 8, pos_t width = 256) {
  Rng rng(seed);
  RowGenParams p;
  p.width = width;
  return generate_image(rng, rows, p);
}

/// The key the router builds for a by-value diff of `a` against `b`.
ResultKey key_of(const RleImage& a, const RleImage& b,
                 const ImageDiffOptions& options) {
  return result_key(image_fingerprint(a), image_fingerprint(b), options);
}

TEST(Coalescer, FingerprintIsStableAndContentSensitive) {
  const RleImage a = make_image(1);
  const RleImage a2 = make_image(1);
  const RleImage b = make_image(2);
  EXPECT_EQ(image_fingerprint(a), image_fingerprint(a2));
  EXPECT_NE(image_fingerprint(a), image_fingerprint(b));

  // Dimensions matter even with zero runs.
  EXPECT_NE(image_fingerprint(RleImage(4, 4)), image_fingerprint(RleImage(4, 5)));
}

TEST(Coalescer, KeyDistinguishesEngineAndCanonicalization) {
  const RleImage a = make_image(3);
  const RleImage b = make_image(4);
  ImageDiffOptions base;
  ImageDiffOptions other_engine = base;
  other_engine.engine = base.engine == DiffEngine::kSystolic
                            ? DiffEngine::kSequentialMerge
                            : DiffEngine::kSystolic;
  ImageDiffOptions no_canon = base;
  no_canon.canonicalize_output = !base.canonicalize_output;

  const ResultKey k = key_of(a, b, base);
  EXPECT_EQ(k, key_of(a, b, base));
  EXPECT_FALSE(k == key_of(a, b, other_engine));
  EXPECT_FALSE(k == key_of(a, b, no_canon));
  EXPECT_FALSE(k == key_of(b, a, base));  // order matters
}

TEST(Coalescer, SecondAdmitOfSameWorkAttachesAsWaiter) {
  const RleImage a = make_image(5);
  const RleImage b = make_image(6);
  const ResultKey key = key_of(a, b, {});
  Coalescer c;

  const auto first = c.admit(key, a, b, 11);
  EXPECT_TRUE(first.primary);
  EXPECT_FALSE(first.collision);
  EXPECT_EQ(c.inflight(), 1u);

  const auto second = c.admit(key, a, b, 12);
  EXPECT_FALSE(second.primary);
  EXPECT_EQ(second.owner, 11u);
  EXPECT_EQ(c.inflight(), 1u);
}

TEST(Coalescer, FinishMakesTheKeyAdmittableAgain) {
  const RleImage a = make_image(7);
  const RleImage b = make_image(8);
  const ResultKey key = key_of(a, b, {});
  Coalescer c;
  ASSERT_TRUE(c.admit(key, a, b, 1).primary);
  c.finish(key);
  EXPECT_EQ(c.inflight(), 0u);
  EXPECT_TRUE(c.admit(key, a, b, 2).primary);
}

TEST(Coalescer, FingerprintCollisionRunsUncoalescedAndUnregistered) {
  const RleImage a = make_image(9);
  const RleImage b = make_image(10);
  const RleImage c_img = make_image(11);
  const RleImage d = make_image(12);
  const ResultKey key = key_of(a, b, {});
  Coalescer c;
  ASSERT_TRUE(c.admit(key, a, b, 1).primary);

  // Same key, different images: exactly what a 64-bit fingerprint collision
  // looks like from the coalescer's side.
  const auto collided = c.admit(key, c_img, d, 2);
  EXPECT_TRUE(collided.primary);
  EXPECT_TRUE(collided.collision);
  EXPECT_EQ(c.collisions(), 1u);
  EXPECT_EQ(c.inflight(), 1u);  // the collider was NOT registered

  // The original owner still holds the key.
  const auto dup = c.admit(key, a, b, 3);
  EXPECT_FALSE(dup.primary);
  EXPECT_EQ(dup.owner, 1u);
}

TEST(Coalescer, ReassignHandsOwnershipToThePromotedWaiter) {
  const RleImage a = make_image(13);
  const RleImage b = make_image(14);
  const ResultKey key = key_of(a, b, {});
  Coalescer c;
  ASSERT_TRUE(c.admit(key, a, b, 1).primary);
  c.reassign(key, 42);
  const auto dup = c.admit(key, a, b, 3);
  EXPECT_FALSE(dup.primary);
  EXPECT_EQ(dup.owner, 42u);
}

}  // namespace
}  // namespace sysrle
