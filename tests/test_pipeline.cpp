// End-to-end tests for the PCB inspection pipeline, plus the report
// formatter.

#include "inspect/pipeline.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "bitmap/convert.hpp"
#include "common/assert.hpp"
#include "inspect/report.hpp"
#include "inspect/scoring.hpp"
#include "workload/pcb.hpp"

namespace sysrle {
namespace {

struct Fixture {
  RleImage reference{0, 0};
  RleImage scan{0, 0};
  std::vector<InjectedDefect> injected;
};

Fixture make_fixture(std::uint64_t seed, std::size_t defect_count) {
  Rng rng(seed);
  PcbParams p;
  p.width = 512;
  p.height = 128;
  const BitmapImage ref_bmp = generate_pcb_artwork(rng, p);
  BitmapImage scan_bmp = ref_bmp;
  DefectParams dp;
  dp.count = defect_count;
  dp.min_size = 3;  // above the pipeline's default noise gate
  Fixture f;
  f.injected = inject_pcb_defects(rng, scan_bmp, dp);
  f.reference = bitmap_to_rle(ref_bmp);
  f.scan = bitmap_to_rle(scan_bmp);
  return f;
}

TEST(Pipeline, CleanBoardPasses) {
  const Fixture f = make_fixture(2001, 0);
  const InspectionReport r = inspect(f.reference, f.reference);
  EXPECT_TRUE(r.pass);
  EXPECT_TRUE(r.defects.empty());
  EXPECT_EQ(r.difference_pixels, 0);
}

TEST(Pipeline, DefaultEngineIsTheAnswerEngine) {
  EXPECT_EQ(InspectionOptions{}.engine, ImageDiffOptions{}.engine);
  const Fixture f = make_fixture(2002, 8);
  const InspectionReport r = inspect(f.reference, f.scan);
  EXPECT_EQ(r.diff_counters, SystolicCounters{});
}

TEST(Pipeline, DefectiveBoardFails) {
  const Fixture f = make_fixture(2002, 8);
  ASSERT_GT(f.injected.size(), 0u);
  InspectionOptions options;
  options.engine = DiffEngine::kSystolic;
  const InspectionReport r = inspect(f.reference, f.scan, options);
  EXPECT_FALSE(r.pass);
  EXPECT_GT(r.defects.size(), 0u);
  EXPECT_GT(r.difference_pixels, 0);
  // The systolic engine actually ran.
  EXPECT_GT(r.diff_counters.iterations, 0u);
}

TEST(Pipeline, EveryDetectedDefectOverlapsAnInjectedOne) {
  const Fixture f = make_fixture(2003, 6);
  const InspectionReport r = inspect(f.reference, f.scan);
  for (const Defect& d : r.defects) {
    bool overlaps = false;
    for (const InjectedDefect& inj : f.injected) {
      const bool x_ok = d.region.min_x < inj.x + inj.w &&
                        inj.x <= d.region.max_x;
      const bool y_ok = d.region.min_y < inj.y + inj.h &&
                        inj.y <= d.region.max_y;
      overlaps |= x_ok && y_ok;
    }
    EXPECT_TRUE(overlaps) << d.to_string();
  }
}

TEST(Pipeline, EnginesAgreeOnDefectCount) {
  const Fixture f = make_fixture(2004, 5);
  InspectionOptions sys;
  sys.engine = DiffEngine::kSystolic;
  InspectionOptions seq;
  seq.engine = DiffEngine::kSequentialMerge;
  const InspectionReport rs = inspect(f.reference, f.scan, sys);
  const InspectionReport rq = inspect(f.reference, f.scan, seq);
  EXPECT_EQ(rs.defects.size(), rq.defects.size());
  EXPECT_EQ(rs.difference_pixels, rq.difference_pixels);
  EXPECT_GT(rq.sequential_iterations, 0u);
}

TEST(Pipeline, AlignmentRecoversKnownShift) {
  const Fixture f = make_fixture(2005, 0);
  const RleImage shifted = shift_image(f.reference, 3);
  InspectionOptions opts;
  opts.alignment_radius = 5;
  const InspectionReport r = inspect(f.reference, shifted, opts);
  EXPECT_EQ(r.applied_shift, -3);
  // After alignment, only border clipping can remain.
  EXPECT_LT(r.difference_pixels,
            f.reference.stats().foreground_pixels / 10);
}

TEST(Pipeline, WithoutAlignmentShiftedScanFails) {
  const Fixture f = make_fixture(2006, 0);
  const RleImage shifted = shift_image(f.reference, 3);
  const InspectionReport r = inspect(f.reference, shifted);
  EXPECT_EQ(r.applied_shift, 0);
  EXPECT_FALSE(r.pass);
}

TEST(Pipeline, ShiftImageClipsAtBorders) {
  RleImage img(10, 1);
  img.set_row(0, RleRow{{0, 3}, {8, 2}});
  const RleImage right = shift_image(img, 5);
  EXPECT_EQ(right.row(0), (RleRow{{5, 3}}));  // second run clipped away? no:
  // (8,2) -> [13,14] fully outside; (0,3) -> [5,7].
  const RleImage left = shift_image(img, -2);
  EXPECT_EQ(left.row(0), (RleRow{{0, 1}, {6, 2}}));
  EXPECT_EQ(shift_image(img, 0), img);
}

TEST(Pipeline, ShiftImageHandlesOverlargeShifts) {
  // Regression: shifts at least as large as the width must yield an
  // all-background image (no clipping arithmetic, no overflow), including
  // at the extreme ends of pos_t where `start + dx` cannot be computed.
  RleImage img(10, 2);
  img.set_row(0, RleRow{{0, 3}, {8, 2}});
  img.set_row(1, RleRow{{4, 4}});
  const RleImage empty(10, 2);
  EXPECT_EQ(shift_image(img, 10), empty);
  EXPECT_EQ(shift_image(img, -10), empty);
  EXPECT_EQ(shift_image(img, 1000000), empty);
  EXPECT_EQ(shift_image(img, std::numeric_limits<pos_t>::max()), empty);
  EXPECT_EQ(shift_image(img, std::numeric_limits<pos_t>::min()), empty);
  // One short of the width leaves exactly one pixel in frame.
  EXPECT_EQ(shift_image(img, 9).row(0), (RleRow{{9, 1}}));
  EXPECT_EQ(shift_image(img, -9).row(0), (RleRow{{0, 1}}));
}

TEST(Pipeline, ShiftImageHandlesDegenerateWidths) {
  const RleImage zero_w(0, 3);
  EXPECT_EQ(shift_image(zero_w, 5), zero_w);
  EXPECT_EQ(shift_image(zero_w, -5), zero_w);
  const RleImage zero_h(10, 0);
  EXPECT_EQ(shift_image(zero_h, 4).height(), 0);
  RleImage one_px(1, 1);
  one_px.set_row(0, RleRow{{0, 1}});
  EXPECT_EQ(shift_image(one_px, 1), RleImage(1, 1));
  EXPECT_EQ(shift_image(one_px, -1), RleImage(1, 1));
  EXPECT_EQ(shift_image(one_px, 0), one_px);
}

TEST(Pipeline, DimensionMismatchRejected) {
  const RleImage a(10, 2), b(10, 3);
  EXPECT_THROW(inspect(a, b), contract_error);
}

TEST(Pipeline, BorderMaskSuppressesAlignmentArtifacts) {
  const Fixture f = make_fixture(2010, 0);
  const RleImage shifted = shift_image(f.reference, 3);
  InspectionOptions opts;
  opts.alignment_radius = 5;
  opts.border_mask = 0;
  const InspectionReport noisy = inspect(f.reference, shifted, opts);
  opts.border_mask = 8;
  const InspectionReport clean = inspect(f.reference, shifted, opts);
  // Without the mask the clipped border columns read as defects; with it
  // the board passes.
  EXPECT_LE(clean.defects.size(), noisy.defects.size());
  EXPECT_TRUE(clean.pass) << clean.defects.size() << " residual defects";
}

TEST(Pipeline, DenoiseOpeningRemovesSpecksKeepsDefects) {
  Fixture f = make_fixture(2011, 3);
  // Sprinkle 1-px salt noise on the scan.
  Rng rng(999);
  BitmapImage scan_bmp = rle_to_bitmap(f.scan);
  for (int i = 0; i < 40; ++i) {
    const pos_t x = rng.uniform(0, scan_bmp.width() - 1);
    const pos_t y = rng.uniform(0, scan_bmp.height() - 1);
    scan_bmp.set(x, y, !scan_bmp.get(x, y));
  }
  const RleImage noisy_scan = bitmap_to_rle(scan_bmp);

  InspectionOptions raw;
  raw.min_defect_area = 1;  // no area gate: count everything
  InspectionOptions denoised = raw;
  denoised.denoise_open_radius = 1;
  const InspectionReport r_raw = inspect(f.reference, noisy_scan, raw);
  const InspectionReport r_dn = inspect(f.reference, noisy_scan, denoised);
  EXPECT_LT(r_dn.defects.size(), r_raw.defects.size());
  // The injected defects (>= 3x3) survive the opening.
  EXPECT_GE(r_dn.defects.size(), 1u);
}

TEST(Pipeline, DetectionScoreAgainstGroundTruth) {
  const Fixture f = make_fixture(2012, 8);
  const InspectionReport r = inspect(f.reference, f.scan);
  const DetectionScore score = score_detections(r.defects, f.injected);
  // Every reported defect sits on an injected one (no false positives on a
  // noise-free scan), and most injected defects are found.
  EXPECT_EQ(score.false_positives, 0u) << score.to_string();
  EXPECT_GE(score.recall(), 0.7) << score.to_string();
}

TEST(Report, FormatsVerdictAndDefects) {
  const Fixture f = make_fixture(2007, 4);
  const InspectionReport r = inspect(f.reference, f.scan);
  const std::string verdict = format_verdict(r);
  const std::string full = format_report(r);
  EXPECT_NE(full.find("inspection report"), std::string::npos);
  EXPECT_NE(full.find(verdict), std::string::npos);
  if (!r.pass) {
    EXPECT_NE(verdict.find("FAIL"), std::string::npos);
    EXPECT_NE(full.find("defects:"), std::string::npos);
    EXPECT_NE(full.find("#1"), std::string::npos);
  }
  const InspectionReport clean = inspect(f.reference, f.reference);
  EXPECT_NE(format_verdict(clean).find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace sysrle
