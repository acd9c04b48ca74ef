// Tests for the systolic image-difference machine, anchored on the paper's
// published example (Figures 1 and 3) and cross-checked against independent
// reference implementations on random inputs.

#include "core/systolic_diff.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "core/live_systolic.hpp"
#include "rle/ops.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sysrle {
namespace {

using sysrle::testing::random_row;
using sysrle::testing::reference_xor;

// The paper's Figure 1 input pair and expected difference.
const RleRow kImg1{{10, 3}, {16, 2}, {23, 2}, {27, 3}};
const RleRow kImg2{{3, 4}, {8, 5}, {15, 5}, {23, 2}, {27, 4}};
const RleRow kExpected{{3, 4}, {8, 2}, {15, 1}, {18, 2}, {30, 1}};

TEST(SystolicDiff, PaperFigure1Output) {
  const SystolicResult r = systolic_xor(kImg1, kImg2);
  EXPECT_EQ(r.output.canonical(), kExpected.canonical());
  // The raw machine output for this input is exactly the published row.
  EXPECT_EQ(r.output, kExpected);
}

TEST(SystolicDiff, PaperFigure3TakesThreeIterations) {
  SystolicConfig cfg;
  cfg.capacity = 6;  // the figure draws Cell0..Cell5
  const SystolicResult r = systolic_xor(kImg1, kImg2, cfg);
  EXPECT_EQ(r.counters.iterations, 3u);
  EXPECT_EQ(r.output, kExpected);
}

TEST(SystolicDiff, PaperFigure3TraceReproduced) {
  TraceRecorder trace;
  SystolicConfig cfg;
  cfg.capacity = 6;
  cfg.trace = &trace;
  systolic_xor(kImg1, kImg2, cfg);

  const std::string rendered = trace.render(false);
  // Key rows of the published trace (Figure 3).
  EXPECT_NE(rendered.find("Initial"), std::string::npos);
  // After step 1.1 the ordered RegSmall lane is (3,4)(8,5)(15,5)(23,2)(27,4).
  EXPECT_NE(rendered.find("(3,4)   (8,5)   (15,5)"), std::string::npos);
  // After step 2.2 the final answer fragments appear: (8,2) (15,1).
  EXPECT_NE(rendered.find("(8,2)"), std::string::npos);
  EXPECT_NE(rendered.find("(15,1)"), std::string::npos);
  EXPECT_NE(rendered.find("(30,1)"), std::string::npos);
  // All three iterations are present.
  EXPECT_NE(rendered.find("1.1"), std::string::npos);
  EXPECT_NE(rendered.find("2.2"), std::string::npos);
  EXPECT_NE(rendered.find("3.1"), std::string::npos);
}

TEST(SystolicDiff, SymmetricInInputOrder) {
  const SystolicResult ab = systolic_xor(kImg1, kImg2);
  const SystolicResult ba = systolic_xor(kImg2, kImg1);
  EXPECT_EQ(ab.output.canonical(), ba.output.canonical());
}

TEST(SystolicDiff, EmptyInputs) {
  EXPECT_TRUE(systolic_xor(RleRow{}, RleRow{}).output.empty());
  EXPECT_EQ(systolic_xor(RleRow{}, RleRow{}).counters.iterations, 0u);
  const SystolicResult only_a = systolic_xor(kImg1, RleRow{});
  EXPECT_EQ(only_a.output, kImg1);
  EXPECT_EQ(only_a.counters.iterations, 0u);  // RegBig lane empty from start
  // Row only in the RegBig lane: one iteration promotes everything.
  const SystolicResult only_b = systolic_xor(RleRow{}, kImg2);
  EXPECT_EQ(only_b.output, kImg2);
  EXPECT_EQ(only_b.counters.iterations, 1u);
}

TEST(SystolicDiff, IdenticalInputsCancelInOneIteration) {
  const SystolicResult r = systolic_xor(kImg2, kImg2);
  EXPECT_TRUE(r.output.empty());
  EXPECT_EQ(r.counters.iterations, 1u);
}

TEST(SystolicDiff, SingleRunPairs) {
  // Overlapping single runs.
  const SystolicResult r = systolic_xor(RleRow{{3, 8}}, RleRow{{5, 12}});
  EXPECT_EQ(r.output.canonical(), xor_rows(RleRow{{3, 8}}, RleRow{{5, 12}}));
  EXPECT_LE(r.counters.iterations, 2u);
}

TEST(SystolicDiff, Theorem1BoundHolds) {
  Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    const pos_t width = rng.uniform(1, 300);
    const RleRow a = random_row(rng, width, rng.uniform01());
    const RleRow b = random_row(rng, width, rng.uniform01());
    const SystolicResult r = systolic_xor(a, b);
    EXPECT_LE(r.counters.iterations, a.run_count() + b.run_count());
  }
}

TEST(SystolicDiff, MatchesReferenceOnRandomInputsWithInvariants) {
  Rng rng(202);
  for (int trial = 0; trial < 60; ++trial) {
    const pos_t width = rng.uniform(1, 250);
    const RleRow a = random_row(rng, width, rng.uniform01());
    const RleRow b = random_row(rng, width, rng.uniform01());
    SystolicConfig cfg;
    cfg.check_invariants = true;  // Theorems 1-3, Corollaries 1.1/2.1 live
    const SystolicResult r = systolic_xor(a, b, cfg);
    EXPECT_EQ(r.output.canonical(), reference_xor(a, b, width))
        << "trial " << trial;
  }
}

TEST(SystolicDiff, ExplicitPaperCapacityTwoK) {
  // The paper sizes the array as 2k cells, k = max runs per input.
  const std::size_t two_k = 2 * std::max(kImg1.run_count(), kImg2.run_count());
  SystolicConfig cfg;
  cfg.capacity = two_k;
  const SystolicResult r = systolic_xor(kImg1, kImg2, cfg);
  EXPECT_EQ(r.output, kExpected);
}

TEST(SystolicDiff, RejectsCapacityBelowInputRuns) {
  SystolicConfig cfg;
  cfg.capacity = 3;  // kImg2 has 5 runs
  EXPECT_THROW(systolic_xor(kImg1, kImg2, cfg), contract_error);
}

TEST(SystolicDiff, CanonicalizeOutputOption) {
  // Construct inputs whose XOR contains adjacent runs: [0,3] and [4,7].
  const RleRow a{{0, 4}};
  const RleRow b{{4, 4}};
  SystolicConfig cfg;
  cfg.canonicalize_output = true;
  const SystolicResult r = systolic_xor(a, b, cfg);
  EXPECT_EQ(r.output, (RleRow{{0, 8}}));
  EXPECT_TRUE(r.output.is_canonical());
}

TEST(SystolicDiff, CountersReflectActivity) {
  const SystolicResult r = systolic_xor(kImg1, kImg2);
  EXPECT_EQ(r.counters.iterations, 3u);
  EXPECT_GE(r.counters.swaps, 1u);       // 1.1 swaps four cells
  EXPECT_GE(r.counters.promotions, 1u);  // cell 4 promotes (27,4)
  EXPECT_GE(r.counters.xors, 1u);
  EXPECT_GE(r.counters.shifts, 1u);
  EXPECT_GE(r.counters.cells_used, 5u);
}

TEST(SystolicDiffMachine, StepwiseDrivingAndTermination) {
  SystolicConfig cfg;
  SystolicDiffMachine m(kImg1, kImg2, cfg);
  EXPECT_FALSE(m.terminated());
  EXPECT_EQ(m.theorem1_bound(), 9u);
  cycle_t steps = 0;
  while (!m.terminated()) {
    m.step();
    ++steps;
    ASSERT_LE(steps, m.theorem1_bound());
  }
  EXPECT_EQ(steps, m.counters().iterations);
  EXPECT_EQ(m.gather_output(), kExpected);
  EXPECT_THROW(m.step(), contract_error);  // stepping past termination
}

TEST(SystolicDiffMachine, RunIsIdempotentAfterTermination) {
  SystolicConfig cfg;
  SystolicDiffMachine m(kImg1, kImg2, cfg);
  m.run();
  EXPECT_EQ(m.run(), 0u);  // already terminated: zero further iterations
}

TEST(SystolicDiff, AdjacentRunsInInputsAreHandled) {
  // Inputs may legally contain adjacent (non-canonical) runs.
  const RleRow a{{0, 3}, {3, 3}};   // [0,2][3,5] adjacent
  const RleRow b{{1, 2}, {10, 2}};
  const SystolicResult r = systolic_xor(a, b);
  EXPECT_EQ(r.output.canonical(), xor_rows(a, b));
}

TEST(SystolicDiffMachine, WorkspaceReuseMatchesFreshMachine) {
  // A re-load()ed machine and a recycled live-set workspace (the row
  // executor keeps one per slot) must behave exactly like a freshly
  // constructed machine, including after runs of very different sizes.
  Rng rng(907);
  SystolicDiffMachine workspace;
  LiveSystolicSimulator live;
  const SystolicConfig cfg;
  for (int trial = 0; trial < 50; ++trial) {
    const pos_t width = rng.uniform(1, 400);
    const RleRow a = random_row(rng, width, rng.uniform01());
    const RleRow b = random_row(rng, width, rng.uniform01());
    SystolicDiffMachine fresh(a, b, cfg);
    fresh.run();
    workspace.load(a, b, cfg);
    workspace.run();
    EXPECT_EQ(workspace.gather_output(), fresh.gather_output())
        << "trial " << trial;
    EXPECT_EQ(workspace.counters(), fresh.counters()) << "trial " << trial;
    const SystolicResult reused = systolic_xor(a, b, cfg, live);
    EXPECT_EQ(reused.output, fresh.gather_output()) << "trial " << trial;
    EXPECT_EQ(reused.counters, fresh.counters()) << "trial " << trial;
  }
}

TEST(SystolicDiffMachine, LoadResetsTerminatedState) {
  SystolicDiffMachine m(kImg1, kImg2, {});
  m.run();
  EXPECT_TRUE(m.terminated());
  m.load(kImg1, kImg2, {});
  EXPECT_FALSE(m.terminated());
  m.run();
  EXPECT_EQ(m.gather_output(), kExpected);
}

TEST(SystolicDiff, WideCoordinatesDoNotOverflow) {
  const pos_t big = pos_t{1} << 40;
  const RleRow a{{big, 100}};
  const RleRow b{{big + 50, 100}};
  const SystolicResult r = systolic_xor(a, b);
  EXPECT_EQ(r.output.canonical(),
            (RleRow{{big, 50}, {big + 100, 50}}));
}

}  // namespace
}  // namespace sysrle
