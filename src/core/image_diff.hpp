#pragma once
// Image-level difference API: applies a row-diff engine to every scanline of
// two RLE images.  This is the operation a PCB inspection system performs per
// acquired board image (reference CAD artwork vs scan), and the natural unit
// for which the paper's per-row machine would be replicated or time-shared.
//
// Rows are independent (the whole premise of the paper's systolic array), so
// the row loop always runs on the native RowExecutor pool.  The result is
// bit-identical to a serial run regardless of thread count: scheduling
// decides who computes a row, never what, and aggregation is serial in row
// order.  diff_row is the one place an engine is chosen for a row; both
// image_diff and the streaming StreamDiffer call it.

#include <cstdint>
#include <optional>

#include "core/cost_model.hpp"
#include "rle/rle_image.hpp"
#include "systolic/counters.hpp"

namespace sysrle {

class LiveSystolicSimulator;

/// Which row-diff engine to run.
enum class DiffEngine {
  kSystolic,         ///< the paper's machine (live-set simulation)
  kBusSystolic,      ///< section-6 broadcast-bus variant
  kSequentialMerge,  ///< the paper's sequential comparator
  kAdaptive,         ///< per-row systolic/sequential dispatch on the cheap
                     ///< half of the §5 cost model (see core/cost_model.hpp)
};

/// Human-readable engine name (for bench output).
const char* to_string(DiffEngine engine);

/// Options for image_diff.
struct ImageDiffOptions {
  /// The answer engine.  With canonical output, kSequentialMerge runs the
  /// word-parallel sequential_engine_xor; the simulators (kSystolic,
  /// kBusSystolic, kAdaptive) run only when named, for the model
  /// quantities they count (iterations, swaps, raw piecewise output).
  /// Every other engine default in the program reads this one.
  DiffEngine engine = DiffEngine::kSequentialMerge;
  /// Merge adjacent runs in every output row.
  bool canonicalize_output = true;

  /// Worker threads for the row loop: 0 = auto (everything the shared pool
  /// offers), 1 = serial in the calling thread, N = exactly N participants
  /// (growing the pool on demand, capped at RowExecutor::kMaxThreads).
  std::size_t threads = 0;
};

/// One row's difference and what it cost.
struct RowDiff {
  RleRow output;
  SystolicCounters counters;                ///< machine activity (systolic/bus)
  std::uint64_t sequential_iterations = 0;  ///< merge iterations
  /// The route kAdaptive took for this row (empty for fixed engines).
  std::optional<AdaptiveRoute> adaptive_route;
};

/// Diffs one row pair with options.engine.  `workspace` is a live-set
/// simulator whose lanes are recycled across calls, so a caller diffing many
/// rows (one workspace per thread) pays no per-row allocation for them.
RowDiff diff_row(const RleRow& a, const RleRow& b,
                 const ImageDiffOptions& options,
                 LiveSystolicSimulator& workspace);

/// Aggregated result of an image-level diff.
struct ImageDiffResult {
  RleImage diff{0, 0};             ///< per-row XOR of the two images
  SystolicCounters counters;       ///< summed machine activity (systolic/bus)
  std::uint64_t sequential_iterations = 0;  ///< summed merge iterations
  cycle_t max_row_iterations = 0;  ///< worst row (array latency if machines
                                   ///< process rows in parallel)

  /// kAdaptive dispatch mix (both zero for fixed engines).
  std::uint64_t adaptive_systolic_rows = 0;
  std::uint64_t adaptive_sequential_rows = 0;

  /// Effective parallelism of this call: participants that processed at
  /// least one row, and rows processed off the calling thread.  A silently
  /// serial run is detectable as threads_used == 1 / parallel_rows == 0.
  std::uint64_t threads_used = 1;
  std::uint64_t parallel_rows = 0;
};

/// Computes the per-row XOR of two equal-sized RLE images with the selected
/// engine.  Rows are processed in parallel on the native executor; output
/// and aggregated counters are bit-identical to a serial run for any thread
/// count.
ImageDiffResult image_diff(const RleImage& a, const RleImage& b,
                           const ImageDiffOptions& options = {});

}  // namespace sysrle
