#include "core/live_systolic.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/assert.hpp"
#include "core/diff_cell.hpp"

namespace sysrle {

SystolicResult LiveSystolicSimulator::run(const RleRow& a, const RleRow& b,
                                          const SystolicConfig& config) {
  const std::size_t k1 = a.run_count();
  const std::size_t k2 = b.run_count();
  const std::size_t capacity = systolic_capacity(config, k1, k2);
  const std::size_t loaded = std::max(k1, k2);
  SYSRLE_REQUIRE(capacity >= loaded,
                 "LiveSystolicSimulator: capacity below input run count");

  // The RegSmall lane covers exactly the cells ever reached, [0, cells_used):
  // row a, then empty registers up to the last loaded RegBig.
  small_start_.clear();
  small_end_.clear();
  for (const Run& r : a.runs()) {
    small_start_.push_back(r.start);
    small_end_.push_back(r.end());
  }
  small_start_.resize(loaded, 0);
  small_end_.resize(loaded, -1);

  live_.clear();
  for (std::size_t j = 0; j < k2; ++j)
    live_.push_back({j, b[j].start, b[j].end()});

  SystolicResult result;
  SystolicCounters& n = result.counters;
  n.cells_used = loaded;
  std::size_t t = 0;  // shifts so far: live run j sits in cell j + t
  while (!live_.empty()) {
    ++n.iterations;
    // Theorem 1 as a hard stop, exactly as in SystolicDiffMachine::step.
    SYSRLE_CHECK(n.iterations <= k1 + k2,
                 "Theorem 1 violated: machine ran past k1+k2 iterations");

    // Steps 1 and 2 on the live cells only; compaction keeps j ascending.
    // Locals keep the lanes' base pointers and the counters in registers.
    pos_t* const lane_start = small_start_.data() + t;
    pos_t* const lane_end = small_end_.data() + t;
    LiveRun* const live = live_.data();
    const std::size_t count = live_.size();
    std::uint64_t promotions = 0;
    std::uint64_t xors = 0;
    std::uint64_t swaps = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
      // Registers in scalars: a LiveRun copy swapped by reference is kept
      // on the stack and stalls store forwarding.
      const std::size_t j = live[i].j;
      pos_t big_start = live[i].start;
      pos_t big_end = live[i].end;
      pos_t small_start = lane_start[j];
      pos_t small_end = lane_end[j];
      if (small_end < small_start) {
        lane_start[j] = big_start;
        lane_end[j] = big_end;
        ++promotions;
        continue;
      }
      if (registers_out_of_order(small_start, small_end, big_start, big_end)) {
        std::swap(small_start, big_start);
        std::swap(small_end, big_end);
        ++swaps;
      }
      xor_registers(small_end, big_start, big_end);
      ++xors;
      lane_start[j] = small_start;
      lane_end[j] = small_end;
      live[kept] = {j, big_start, big_end};
      kept += big_end >= big_start ? 1 : 0;
    }
    n.promotions += promotions;
    n.swaps += swaps;
    n.xors += xors;
    live_.resize(kept);
    if (kept == 0) break;

    // Step 3: the whole RegBig lane moves one cell right.
    ++t;
    n.shifts += kept;
    const std::size_t last = live_.back().j + t;
    SYSRLE_CHECK(last < capacity,
                 "Corollary 1.2 violated: a run was shifted out of the array");
    if (last + 1 > n.cells_used) {
      // The frontier advances at most one cell per shift.
      SYSRLE_DCHECK(last == small_start_.size(),
                    "LiveSystolicSimulator: frontier skipped a cell");
      n.cells_used = last + 1;
      small_start_.push_back(0);
      small_end_.push_back(-1);
    }
  }

  std::vector<Run> runs;
  runs.reserve(small_start_.size());
  for (std::size_t c = 0; c < small_start_.size(); ++c)
    if (small_end_[c] >= small_start_[c])
      runs.emplace_back(small_start_[c], small_end_[c] - small_start_[c] + 1);
  result.output = RleRow(std::move(runs));
  if (config.canonicalize_output) result.output.canonicalize();
  return result;
}

}  // namespace sysrle
