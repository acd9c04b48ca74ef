// Differential tests: the live-set simulator against SystolicDiffMachine,
// its oracle.  Every counter (SystolicCounters::operator==) and the raw,
// uncanonicalized output must match bit for bit — exhaustively on small
// widths, and on every generator regime the image-level tests use.

#include "core/live_systolic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "rle/encode.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

SystolicResult oracle(const RleRow& a, const RleRow& b,
                      const SystolicConfig& cfg) {
  SystolicDiffMachine machine(a, b, cfg);
  machine.run();
  return {machine.gather_output(), machine.counters()};
}

/// Runs both simulators on (a, b) in both input orders and compares them.
void expect_matches_oracle(LiveSystolicSimulator& live, const RleRow& a,
                           const RleRow& b, const SystolicConfig& cfg = {}) {
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    const SystolicResult want = oracle(*x, *y, cfg);
    const SystolicResult got = live.run(*x, *y, cfg);
    ASSERT_EQ(got.counters, want.counters)
        << *x << " ^ " << *y << "\n  live:   " << got.counters.to_string()
        << "\n  oracle: " << want.counters.to_string();
    ASSERT_EQ(got.output, want.output) << *x << " ^ " << *y;
  }
}

std::string bits_of(unsigned value, int width) {
  std::string s(static_cast<std::size_t>(width), '0');
  for (int i = 0; i < width; ++i)
    if (value & (1u << i)) s[static_cast<std::size_t>(i)] = '1';
  return s;
}

/// Row b keeps each run of row a with probability 1 - fraction (the θ
/// sweep's run-deletion pairs: k2 <= k1, every surviving run identical).
RleRow delete_runs(Rng& rng, const RleRow& a, double fraction) {
  RleRow b;
  for (const Run& r : a)
    if (!rng.bernoulli(fraction)) b.push_back(r);
  return b;
}

TEST(LiveSystolic, EveryPairAtWidthsOneToSeven) {
  LiveSystolicSimulator live;  // one workspace across every pair
  for (int width = 1; width <= 7; ++width) {
    for (unsigned va = 0; va < (1u << width); ++va) {
      const RleRow a = encode_bitstring(bits_of(va, width));
      for (unsigned vb = 0; vb < (1u << width); ++vb) {
        const RleRow b = encode_bitstring(bits_of(vb, width));
        const SystolicResult want = oracle(a, b, {});
        const SystolicResult got = live.run(a, b, {});
        ASSERT_EQ(got.counters, want.counters) << a << " ^ " << b;
        ASSERT_EQ(got.output, want.output) << a << " ^ " << b;
      }
    }
  }
}

TEST(LiveSystolic, EveryGeneratorRegime) {
  struct Regime {
    pos_t width;
    double density;
    double error_fraction;  // < 0: independent rows (dissimilar images)
  };
  LiveSystolicSimulator live;
  for (const Regime& g : {Regime{128, 0.30, 0.035}, Regime{2048, 0.30, 0.005},
                          Regime{1024, 0.10, 0.02}, Regime{1024, 0.60, 0.02},
                          Regime{10000, 0.30, 0.01}, Regime{10000, 0.30, 0.03},
                          Regime{10000, 0.30, 0.10}, Regime{10000, 0.30, 0.30},
                          Regime{1024, 0.30, 0.60}, Regime{512, 0.50, 0.45},
                          Regime{256, 0.30, -1.0}, Regime{256, 0.70, -1.0},
                          Regime{64, 0.50, -1.0}}) {
    SCOPED_TRACE("width " + std::to_string(g.width) + " density " +
                 std::to_string(g.density) + " error " +
                 std::to_string(g.error_fraction));
    Rng rng(1601);
    RowGenParams rp;
    rp.width = g.width;
    rp.density = g.density;
    ErrorGenParams ep;
    ep.error_fraction = g.error_fraction;
    for (int row = 0; row < 12; ++row) {
      if (g.error_fraction >= 0) {
        const RowPairSample s = generate_pair(rng, rp, ep);
        expect_matches_oracle(live, s.first, s.second);
      } else {
        const RleRow a = sysrle::testing::random_row(rng, g.width, g.density);
        const RleRow b = sysrle::testing::random_row(rng, g.width, g.density);
        expect_matches_oracle(live, a, b);
      }
    }
  }
}

TEST(LiveSystolic, Table1FixedErrorRuns) {
  LiveSystolicSimulator live;
  Rng rng(1999);
  for (const pos_t width : {256, 1024, 4096, 10000}) {
    RowGenParams rp;
    rp.width = width;
    for (int row = 0; row < 8; ++row) {
      const RowPairSample s = generate_pair_fixed_errors(rng, rp, 6, 4);
      expect_matches_oracle(live, s.first, s.second);
    }
  }
}

TEST(LiveSystolic, RunDeletionPairs) {
  LiveSystolicSimulator live;
  Rng rng(825001);
  RowGenParams paper;
  for (const double fraction : {0.0, 0.1, 0.4, 0.8, 1.0}) {
    for (int row = 0; row < 16; ++row) {
      const RleRow a = generate_row(rng, paper);
      expect_matches_oracle(live, a, delete_runs(rng, a, fraction));
    }
  }
}

TEST(LiveSystolic, EmptyRows) {
  LiveSystolicSimulator live;
  const RleRow some{{3, 4}, {8, 5}, {15, 5}};
  expect_matches_oracle(live, RleRow{}, RleRow{});
  expect_matches_oracle(live, some, RleRow{});
  const SystolicResult none = live.run(RleRow{}, RleRow{}, {});
  EXPECT_TRUE(none.output.empty());
  EXPECT_EQ(none.counters, SystolicCounters{});
}

TEST(LiveSystolic, PaperTwoKCapacity) {
  // The paper sizes the array statically at 2k cells, k = max runs per row.
  LiveSystolicSimulator live;
  Rng rng(20261020);
  RowGenParams rp;
  rp.width = 4096;
  ErrorGenParams ep;
  ep.error_fraction = 0.10;
  for (int row = 0; row < 16; ++row) {
    const RowPairSample s = generate_pair(rng, rp, ep);
    SystolicConfig cfg;
    cfg.capacity =
        2 * std::max(s.first.run_count(), s.second.run_count());
    expect_matches_oracle(live, s.first, s.second, cfg);
  }
  // Figure 3 draws six cells.
  const RleRow img1{{10, 3}, {16, 2}, {23, 2}, {27, 3}};
  const RleRow img2{{3, 4}, {8, 5}, {15, 5}, {23, 2}, {27, 4}};
  SystolicConfig six;
  six.capacity = 6;
  expect_matches_oracle(live, img1, img2, six);
  EXPECT_EQ(live.run(img1, img2, six).counters.iterations, 3u);
}

TEST(LiveSystolic, CanonicalizeOutputMatchesOracle) {
  LiveSystolicSimulator live;
  Rng rng(4242);
  SystolicConfig cfg;
  cfg.canonicalize_output = true;
  for (int row = 0; row < 32; ++row) {
    const RleRow a = sysrle::testing::random_row(rng, 300, 0.5);
    const RleRow b = sysrle::testing::random_row(rng, 300, 0.5);
    expect_matches_oracle(live, a, b, cfg);
    EXPECT_TRUE(live.run(a, b, cfg).output.is_canonical());
  }
}

TEST(LiveSystolic, CapacityBelowRunCountThrowsOnBothPaths) {
  const RleRow a{{0, 1}, {2, 1}, {4, 1}};
  const RleRow b{{1, 1}};
  SystolicConfig cfg;
  cfg.capacity = 2;
  LiveSystolicSimulator live;
  EXPECT_THROW(live.run(a, b, cfg), contract_error);
  EXPECT_THROW(systolic_xor(a, b, cfg), contract_error);
  EXPECT_THROW(SystolicDiffMachine(a, b, cfg), contract_error);
}

TEST(LiveSystolic, RunShiftedOutOfTheArrayThrowsOnBothPaths) {
  // One cell: RegBig keeps [2,2] after the XOR, and step 3 pushes it out.
  const RleRow a{{0, 1}};
  const RleRow b{{2, 1}};
  SystolicConfig cfg;
  cfg.capacity = 1;
  LiveSystolicSimulator live;
  EXPECT_THROW(live.run(a, b, cfg), contract_error);
  EXPECT_THROW(oracle(a, b, cfg), contract_error);
  // The workspace stays usable after a contract failure.
  expect_matches_oracle(live, a, b);
}

TEST(LiveSystolic, TracedOrCheckedRunsStepTheMachine) {
  const RleRow img1{{10, 3}, {16, 2}, {23, 2}, {27, 3}};
  const RleRow img2{{3, 4}, {8, 5}, {15, 5}, {23, 2}, {27, 4}};
  TraceRecorder trace;
  SystolicConfig traced;
  traced.capacity = 6;
  traced.trace = &trace;
  LiveSystolicSimulator live;
  const SystolicResult r = systolic_xor(img1, img2, traced, live);
  // Initial frame plus three micro-steps for each of the three iterations.
  EXPECT_EQ(trace.frame_count(), 1u + 3u * 3u);
  SystolicConfig plain;
  plain.capacity = 6;
  EXPECT_EQ(r.counters, oracle(img1, img2, plain).counters);
  EXPECT_EQ(r.output, oracle(img1, img2, plain).output);

  SystolicConfig checked;
  checked.check_invariants = true;
  const SystolicResult c = systolic_xor(img1, img2, checked, live);
  EXPECT_EQ(c.counters, oracle(img1, img2, {}).counters);
  EXPECT_EQ(c.output, oracle(img1, img2, {}).output);
}

TEST(LiveSystolic, SystolicXorOverloadsAgree) {
  Rng rng(7);
  LiveSystolicSimulator live;
  for (int row = 0; row < 16; ++row) {
    const RleRow a = sysrle::testing::random_row(rng, 200, 0.4);
    const RleRow b = sysrle::testing::random_row(rng, 200, 0.4);
    const SystolicResult fresh = systolic_xor(a, b);
    const SystolicResult reused = systolic_xor(a, b, {}, live);
    EXPECT_EQ(fresh.counters, reused.counters);
    EXPECT_EQ(fresh.output, reused.output);
    EXPECT_EQ(fresh.counters, oracle(a, b, {}).counters);
  }
}

}  // namespace
}  // namespace sysrle
