#include "core/image_diff.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "baseline/word_diff.hpp"
#include "common/assert.hpp"
#include "core/bus_variant.hpp"
#include "core/live_systolic.hpp"
#include "core/row_executor.hpp"
#include "core/systolic_diff.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

const char* to_string(DiffEngine engine) {
  switch (engine) {
    case DiffEngine::kSystolic:
      return "systolic";
    case DiffEngine::kBusSystolic:
      return "bus-systolic";
    case DiffEngine::kSequentialMerge:
      return "sequential-merge";
    case DiffEngine::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

RowDiff diff_row(const RleRow& a, const RleRow& b,
                 const ImageDiffOptions& options,
                 LiveSystolicSimulator& workspace) {
  RowDiff out;
  const auto run_systolic = [&] {
    SystolicConfig cfg;
    cfg.canonicalize_output = options.canonicalize_output;
    SystolicResult r = systolic_xor(a, b, cfg, workspace);
    out.output = std::move(r.output);
    out.counters = r.counters;
  };
  const auto run_sequential = [&] {
    SequentialDiffResult r =
        sequential_row_xor(a, b, options.canonicalize_output);
    out.output = std::move(r.output);
    out.sequential_iterations = r.iterations;
  };

  switch (options.engine) {
    case DiffEngine::kSystolic:
      run_systolic();
      break;
    case DiffEngine::kBusSystolic: {
      BusConfig cfg;
      cfg.canonicalize_output = options.canonicalize_output;
      BusResult r = bus_systolic_xor(a, b, cfg);
      out.output = std::move(r.output);
      out.counters = r.counters;
      break;
    }
    case DiffEngine::kSequentialMerge:
      run_sequential();
      break;
    case DiffEngine::kAdaptive:
      // Route on the cheap half of the cost model only (k1, k2, |k1 - k2|);
      // the decision depends on nothing but the input rows, so the mix is
      // identical at every thread count.
      out.adaptive_route =
          choose_adaptive_route(a.run_count(), b.run_count());
      if (out.adaptive_route == AdaptiveRoute::kSystolic)
        run_systolic();
      else
        run_sequential();
      break;
  }
  return out;
}

namespace {

/// The scheduling grain: rows claimed per executor chunk.
constexpr std::size_t kRowChunk = 16;

/// A span per row would flood the flight ring (which keeps the newest
/// events) and push a serving request's own events out of it, so only every
/// kRowSpanStride-th row opens one.  Sampling by row index is
/// deterministic: the same rows are sampled at any thread count.
constexpr std::size_t kRowSpanStride = 64;

RowDiff diff_one_row(std::size_t y, const RleRow& ra, const RleRow& rb,
                     const ImageDiffOptions& options,
                     LiveSystolicSimulator& workspace) {
  if (y % kRowSpanStride == 0) {
    TELEMETRY_SPAN("row_diff");
    return diff_row(ra, rb, options, workspace);
  }
  return diff_row(ra, rb, options, workspace);
}

}  // namespace

ImageDiffResult image_diff(const RleImage& a, const RleImage& b,
                           const ImageDiffOptions& options) {
  TELEMETRY_SPAN("image_diff");
  SYSRLE_REQUIRE(a.width() == b.width() && a.height() == b.height(),
                 "image_diff: image dimensions differ");
  const pos_t height = a.height();
  std::vector<RowDiff> outcomes(static_cast<std::size_t>(height));

  // One simulator workspace per participant, its lanes recycled across
  // every row that participant processes.
  RowExecutor& executor = RowExecutor::global();
  std::vector<LiveSystolicSimulator> workspaces(std::max<std::size_t>(
      1, executor.plan_slots(outcomes.size(), options.threads, kRowChunk)));
  const RowRunStats stats = executor.run(
      outcomes.size(),
      [&](std::size_t i, std::size_t slot) {
        const pos_t y = static_cast<pos_t>(i);
        outcomes[i] =
            diff_one_row(i, a.row(y), b.row(y), options, workspaces[slot]);
      },
      options.threads, kRowChunk);

  ImageDiffResult result;
  result.diff = RleImage(a.width(), height);
  for (pos_t y = 0; y < height; ++y) {
    RowDiff& o = outcomes[static_cast<std::size_t>(y)];
    result.max_row_iterations =
        std::max(result.max_row_iterations, o.counters.iterations);
    result.counters += o.counters;
    result.sequential_iterations += o.sequential_iterations;
    if (o.adaptive_route == AdaptiveRoute::kSystolic)
      ++result.adaptive_systolic_rows;
    if (o.adaptive_route == AdaptiveRoute::kSequential)
      ++result.adaptive_sequential_rows;
    result.diff.set_row(y, std::move(o.output));
  }
  result.threads_used = std::max<std::uint64_t>(stats.threads_used(), 1);
  result.parallel_rows = stats.parallel_rows();

  if (telemetry_enabled()) {
    MetricsRegistry& m = global_metrics();
    m.observe("image.threads_used",
              static_cast<double>(result.threads_used));
    for (const std::uint64_t rows : stats.rows_per_slot)
      if (rows > 0)
        m.observe("image.rows_per_thread", static_cast<double>(rows));
    m.add("image.parallel_rows", result.parallel_rows);
    if (options.engine == DiffEngine::kAdaptive) {
      m.add("adaptive.picked_systolic", result.adaptive_systolic_rows);
      m.add("adaptive.picked_sequential", result.adaptive_sequential_rows);
    }
  }
  return result;
}

}  // namespace sysrle
