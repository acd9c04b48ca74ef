// Tests for the image-level diff API across all engines.

#include "core/image_diff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bitmap/bit_ops.hpp"
#include "bitmap/convert.hpp"
#include "common/assert.hpp"
#include "rle/encode.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

RleImage random_image(Rng& rng, pos_t width, pos_t height, double density) {
  RowGenParams p;
  p.width = width;
  p.density = density;
  return generate_image(rng, height, p);
}

TEST(ImageDiff, AllEnginesAgreeWithBitmapGroundTruth) {
  Rng rng(801);
  const RleImage a = random_image(rng, 500, 12, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }
  const RleImage expected =
      bitmap_to_rle(xor_images(rle_to_bitmap(a), rle_to_bitmap(b)));

  for (const DiffEngine engine :
       {DiffEngine::kSystolic, DiffEngine::kBusSystolic,
        DiffEngine::kSequentialMerge, DiffEngine::kAdaptive}) {
    ImageDiffOptions opts;
    opts.engine = engine;
    opts.canonicalize_output = true;
    const ImageDiffResult r = image_diff(a, b, opts);
    EXPECT_EQ(r.diff, expected) << to_string(engine);
  }
}

TEST(ImageDiff, DimensionMismatchRejected) {
  const RleImage a(10, 2);
  const RleImage b(10, 3);
  const RleImage c(11, 2);
  EXPECT_THROW(image_diff(a, b), contract_error);
  EXPECT_THROW(image_diff(a, c), contract_error);
}

TEST(ImageDiff, IdenticalImagesGiveEmptyDiff) {
  Rng rng(802);
  const RleImage a = random_image(rng, 300, 8, 0.3);
  ImageDiffOptions sys;
  sys.engine = DiffEngine::kSystolic;
  const ImageDiffResult r = image_diff(a, a, sys);
  EXPECT_EQ(r.diff.stats().foreground_pixels, 0);
  // One iteration per non-empty row (everything cancels in-cell).
  EXPECT_EQ(r.max_row_iterations, 1u);
  EXPECT_EQ(image_diff(a, a).diff.stats().foreground_pixels, 0);
}

TEST(ImageDiff, CountersAggregateAcrossRows) {
  Rng rng(803);
  const RleImage a = random_image(rng, 400, 6, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }
  ImageDiffOptions sys;
  sys.engine = DiffEngine::kSystolic;
  const ImageDiffResult r = image_diff(a, b, sys);
  EXPECT_GT(r.counters.iterations, 0u);
  EXPECT_GE(r.counters.iterations, r.max_row_iterations);
  EXPECT_GT(r.max_row_iterations, 0u);

  ImageDiffOptions seq;
  seq.engine = DiffEngine::kSequentialMerge;
  const ImageDiffResult rs = image_diff(a, b, seq);
  EXPECT_GT(rs.sequential_iterations, 0u);
  EXPECT_EQ(rs.counters.iterations, 0u);  // no machine involved
}

// The default engine is the answer engine: its output equals the systolic
// machine's canonical output bit for bit, and it runs no machine, so every
// model counter stays zero.
void expect_default_is_canonical_systolic(const RleImage& a, const RleImage& b,
                                          const std::string& label) {
  const ImageDiffResult answer = image_diff(a, b);
  ImageDiffOptions model;
  model.engine = DiffEngine::kSystolic;
  const ImageDiffResult sys = image_diff(a, b, model);
  EXPECT_EQ(answer.diff, sys.diff) << label;
  EXPECT_EQ(answer.counters, SystolicCounters{}) << label;
  EXPECT_EQ(answer.max_row_iterations, 0u) << label;
}

TEST(ImageDiff, DefaultEngineIsTheWordEngine) {
  EXPECT_EQ(ImageDiffOptions{}.engine, DiffEngine::kSequentialMerge);
  EXPECT_TRUE(ImageDiffOptions{}.canonicalize_output);
}

TEST(ImageDiff, DefaultMatchesCanonicalSystolicOnEverySmallRowPair) {
  // Every pair of rows of width 1..7, one pair per image row.
  for (pos_t width = 1; width <= 7; ++width) {
    const unsigned n = 1u << width;
    RleImage a(width, static_cast<pos_t>(n * n));
    RleImage b(width, static_cast<pos_t>(n * n));
    const auto bits = [width](unsigned v) {
      std::string s(static_cast<std::size_t>(width), '0');
      for (pos_t i = 0; i < width; ++i)
        if (v & (1u << i)) s[static_cast<std::size_t>(i)] = '1';
      return s;
    };
    for (unsigned va = 0; va < n; ++va)
      for (unsigned vb = 0; vb < n; ++vb) {
        const pos_t y = static_cast<pos_t>(va * n + vb);
        a.set_row(y, encode_bitstring(bits(va)));
        b.set_row(y, encode_bitstring(bits(vb)));
      }
    expect_default_is_canonical_systolic(a, b,
                                         "width " + std::to_string(width));
  }
}

TEST(ImageDiff, DefaultMatchesCanonicalSystolicInEveryGeneratorRegime) {
  constexpr pos_t kRows = 12;
  struct Regime {
    pos_t width;
    double density;
    double error_fraction;  // < 0: independent rows (dissimilar images)
  };
  // The error-fraction regime (similar, Figure-5 and heavy-error points)
  // and independent rows.
  for (const Regime& g : {Regime{128, 0.30, 0.035}, Regime{2048, 0.30, 0.005},
                          Regime{1024, 0.10, 0.02}, Regime{1024, 0.60, 0.02},
                          Regime{10000, 0.30, 0.01}, Regime{10000, 0.30, 0.03},
                          Regime{10000, 0.30, 0.10}, Regime{10000, 0.30, 0.30},
                          Regime{1024, 0.30, 0.60}, Regime{512, 0.50, 0.45},
                          Regime{256, 0.30, -1.0}, Regime{256, 0.70, -1.0},
                          Regime{64, 0.50, -1.0}}) {
    Rng rng(1601);
    RowGenParams rp;
    rp.width = g.width;
    rp.density = g.density;
    ErrorGenParams ep;
    ep.error_fraction = g.error_fraction;
    RleImage a(g.width, kRows);
    RleImage b(g.width, kRows);
    for (pos_t y = 0; y < kRows; ++y) {
      if (g.error_fraction >= 0) {
        RowPairSample s = generate_pair(rng, rp, ep);
        a.set_row(y, std::move(s.first));
        b.set_row(y, std::move(s.second));
      } else {
        a.set_row(y, sysrle::testing::random_row(rng, g.width, g.density));
        b.set_row(y, sysrle::testing::random_row(rng, g.width, g.density));
      }
    }
    expect_default_is_canonical_systolic(
        a, b,
        "width " + std::to_string(g.width) + " density " +
            std::to_string(g.density) + " error " +
            std::to_string(g.error_fraction));
  }

  // Table 1's fixed-error-run regime: 6 runs of 4 pixels per row.
  Rng rng(1602);
  RowGenParams rp;
  RleImage a(rp.width, kRows);
  RleImage b(rp.width, kRows);
  for (pos_t y = 0; y < kRows; ++y) {
    RowPairSample s = generate_pair_fixed_errors(rng, rp, 6, 4);
    a.set_row(y, std::move(s.first));
    b.set_row(y, std::move(s.second));
  }
  expect_default_is_canonical_systolic(a, b, "fixed error runs");
}

TEST(ImageDiff, EngineNamesAreDistinct) {
  EXPECT_STRNE(to_string(DiffEngine::kSystolic),
               to_string(DiffEngine::kBusSystolic));
  EXPECT_STRNE(to_string(DiffEngine::kSequentialMerge),
               to_string(DiffEngine::kAdaptive));
}

TEST(ImageDiff, EmptyImages) {
  const RleImage a(100, 0);
  const ImageDiffResult r = image_diff(a, a);
  EXPECT_EQ(r.diff.height(), 0);
  EXPECT_EQ(r.counters.iterations, 0u);
}

// The determinism pin: a 4-thread run must be bit-identical to the serial
// run — same RleImage, same aggregated counters, same per-row maxima.  This
// is the guarantee that makes the parallel executor a drop-in replacement
// (scheduling decides who computes a row, never what).
TEST(ImageDiff, ParallelMatchesSerialBitForBit) {
  Rng rng(804);
  const RleImage a = random_image(rng, 600, 64, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }

  for (const DiffEngine engine :
       {DiffEngine::kSystolic, DiffEngine::kSequentialMerge,
        DiffEngine::kAdaptive}) {
    ImageDiffOptions serial;
    serial.engine = engine;
    serial.threads = 1;
    const ImageDiffResult rs = image_diff(a, b, serial);

    ImageDiffOptions parallel = serial;
    parallel.threads = 4;
    const ImageDiffResult rp = image_diff(a, b, parallel);

    EXPECT_EQ(rp.diff, rs.diff) << to_string(engine);
    EXPECT_EQ(rp.counters.to_string(), rs.counters.to_string())
        << to_string(engine);
    EXPECT_EQ(rp.max_row_iterations, rs.max_row_iterations);
    EXPECT_EQ(rp.sequential_iterations, rs.sequential_iterations);
    EXPECT_EQ(rp.adaptive_systolic_rows, rs.adaptive_systolic_rows);
    EXPECT_EQ(rp.adaptive_sequential_rows, rs.adaptive_sequential_rows);
  }
}

TEST(ImageDiff, ThreadsUsedIsSurfaced) {
  Rng rng(805);
  const RleImage a = random_image(rng, 200, 32, 0.3);
  ImageDiffOptions opts;
  opts.threads = 1;
  const ImageDiffResult serial = image_diff(a, a, opts);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(serial.parallel_rows, 0u);

  opts.threads = 4;
  const ImageDiffResult parallel = image_diff(a, a, opts);
  EXPECT_GE(parallel.threads_used, 1u);
  EXPECT_LE(parallel.threads_used, 4u);
}

TEST(ImageDiff, ConcurrentCallsShareTheGlobalPool) {
  // Several threads run threaded image_diffs at once (the service's
  // pattern); every caller must still get the exact serial answer.  The
  // TSan CI job runs this for data races.
  Rng rng(807);
  const RleImage a = random_image(rng, 300, 48, 0.3);
  RleImage b = a;
  for (pos_t y = 0; y < b.height(); ++y) {
    Rng row_rng = rng.split();
    b.set_row(y, inject_errors(row_rng, a.row(y), a.width(), {}));
  }
  ImageDiffOptions opts;
  opts.engine = DiffEngine::kAdaptive;
  opts.threads = 1;
  const ImageDiffResult expected = image_diff(a, b, opts);

  opts.threads = 3;
  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        const ImageDiffResult r = image_diff(a, b, opts);
        if (!(r.diff == expected.diff) ||
            r.counters.to_string() != expected.counters.to_string())
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ImageDiff, AdaptiveRoutesSimilarRowsToSystolic) {
  // Identical images: every row pair has k1 == k2, the most similar shape
  // possible — the adaptive engine must pick the systolic machine for every
  // non-trivial row and never fall back to the merge.
  Rng rng(806);
  const RleImage a = random_image(rng, 300, 16, 0.3);
  ImageDiffOptions opts;
  opts.engine = DiffEngine::kAdaptive;
  const ImageDiffResult r = image_diff(a, a, opts);
  EXPECT_EQ(r.adaptive_sequential_rows, 0u);
  EXPECT_EQ(r.adaptive_systolic_rows, static_cast<std::uint64_t>(a.height()));
  EXPECT_EQ(r.sequential_iterations, 0u);
}

TEST(ImageDiff, AdaptiveRoutesDissimilarRowsToSequential) {
  // Empty rows against heavily fragmented rows: |k1 - k2| == k1 + k2, the
  // most dissimilar shape — every row must take the sequential merge.
  const pos_t width = 400;
  const pos_t height = 8;
  const RleImage empty(width, height);
  RleImage busy(width, height);
  for (pos_t y = 0; y < height; ++y) {
    RleRow row;
    for (pos_t x = 0; x + 1 < width; x += 8) row.push_back(sysrle::Run{x, 2});
    busy.set_row(y, std::move(row));
  }
  ImageDiffOptions opts;
  opts.engine = DiffEngine::kAdaptive;
  const ImageDiffResult r = image_diff(empty, busy, opts);
  EXPECT_EQ(r.adaptive_systolic_rows, 0u);
  EXPECT_EQ(r.adaptive_sequential_rows, static_cast<std::uint64_t>(height));
  EXPECT_GT(r.sequential_iterations, 0u);
  EXPECT_EQ(r.counters.iterations, 0u);  // no machine ran
}

}  // namespace
}  // namespace sysrle
