#pragma once
// The reference-based PCB inspection pipeline the paper is motivated by [2]:
//
//   scan alignment  ->  compressed image difference  ->  component labeling
//   ->  defect classification  ->  report
//
// Every stage after acquisition operates in the compressed (RLE) domain; the
// difference stage can run on any engine, including the paper's systolic
// machine, whose activity counters propagate into the report.

#include <cstdint>
#include <vector>

#include "core/image_diff.hpp"
#include "inspect/defect.hpp"
#include "rle/rle_image.hpp"

namespace sysrle {

/// Pipeline configuration.
struct InspectionOptions {
  /// Row-diff engine for the difference stage.
  DiffEngine engine = ImageDiffOptions{}.engine;

  /// Worker threads for the difference stage's row loop (0 = auto, 1 =
  /// serial; see ImageDiffOptions::threads).
  std::size_t threads = 0;

  /// Horizontal alignment search radius in pixels (0 disables alignment).
  /// Scan images from a line camera are commonly offset by a few columns;
  /// the pipeline picks the shift minimising the difference pixel count.
  pos_t alignment_radius = 0;

  /// Noise gate: difference components smaller than this are not defects.
  len_t min_defect_area = 2;

  /// Morphological opening radius applied to the difference image before
  /// labeling (0 disables).  Deletes isolated specks smaller than the
  /// (2r+1)^2 structuring element — scanner salt noise — without shrinking
  /// real defects.
  pos_t denoise_open_radius = 0;

  /// Ignore differences within this many pixels of the left/right image
  /// borders (0 disables).  Horizontal alignment clips runs at the borders,
  /// producing spurious edge differences that are not board defects.
  pos_t border_mask = 0;

  Connectivity connectivity = Connectivity::kEight;
};

/// Pipeline output.
struct InspectionReport {
  std::vector<Defect> defects;
  pos_t applied_shift = 0;          ///< chosen horizontal alignment
  len_t difference_pixels = 0;      ///< |ref XOR scan| after alignment
  SystolicCounters diff_counters;   ///< machine activity in the diff stage
  std::uint64_t sequential_iterations = 0;  ///< when the merge engine is used
  bool pass = true;                 ///< true when no defects survive the gate
};

/// Shifts every run of an RLE image horizontally by `dx`, clipping at the
/// image borders.  Exposed for tests and for external alignment logic.
RleImage shift_image(const RleImage& img, pos_t dx);

/// Runs the full inspection: optional alignment, difference, labeling,
/// classification.  `reference` and `scan` must have equal dimensions.
InspectionReport inspect(const RleImage& reference, const RleImage& scan,
                         const InspectionOptions& options = {});

}  // namespace sysrle
