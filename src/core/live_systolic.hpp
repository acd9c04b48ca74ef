#pragma once
// The live-set simulator: the paper's machine at a cost of
// O(k1 + k2 + sum of live registers) per row instead of O(cells x
// iterations).
//
// Only a cell whose RegBig holds a run can change state, and the RegBig lane
// moves as one rigid register file.  So the simulator keeps the RegSmall
// lane as two position arrays indexed by cell (end < start = empty, the
// hardware's own encoding) and the RegBig runs in a live list of
// {j, start, end}, j being the run's input position: after t shifts the run
// sits in cell j + t, so step 3 is ++t and no data moves.  Each iteration
// applies steps 1 and 2 (core/diff_cell.hpp's cell rule) to the live entries
// only and compacts the list in place; an empty list is the wired-AND of the
// C lines.  Output and every counter are identical to SystolicDiffMachine,
// which stays the oracle (tests/test_live_systolic.cpp pins the two).

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/systolic_diff.hpp"
#include "rle/rle_row.hpp"

namespace sysrle {

/// A recyclable workspace for the live-set simulator.  Hot row loops hold
/// one per worker thread (see core/image_diff.hpp), so steady state
/// allocates nothing but the output row.
class LiveSystolicSimulator {
 public:
  /// Runs the machine on row a (RegSmall lane) and row b (RegBig lane).
  /// Honours config.capacity and config.canonicalize_output and keeps the
  /// machine's capacity, Theorem-1 and Corollary-1.2 checks; config.trace
  /// and config.check_invariants need the cycle-level machine (systolic_xor
  /// dispatches those to SystolicDiffMachine).
  SystolicResult run(const RleRow& a, const RleRow& b,
                     const SystolicConfig& config);

 private:
  /// A RegBig run; it sits in cell j + t after t shifts.
  struct LiveRun {
    std::size_t j;
    pos_t start;
    pos_t end;
  };

  std::vector<pos_t> small_start_;
  std::vector<pos_t> small_end_;
  std::vector<LiveRun> live_;
};

}  // namespace sysrle
