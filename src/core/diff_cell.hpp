#pragma once
// One cell of the paper's systolic image-difference machine (Figure 2).
//
// A cell holds two run registers.  RegSmall accumulates settled output runs;
// RegBig carries runs that are still travelling right.  Each iteration the
// cell executes:
//   step 1 (order)  — smaller run into RegSmall (swap or promote),
//   step 2 (xor)    — in-cell XOR of the two runs via four min/max updates,
//   step 3 (shift)  — handled by the array: RegBig moves one cell right.
//
// Runs are manipulated as closed intervals [start, end]; an interval with
// end < start is the hardware's encoding of an empty register, surfaced here
// as std::nullopt.

#include <algorithm>
#include <optional>

#include "common/types.hpp"
#include "rle/run.hpp"
#include "systolic/trace.hpp"

namespace sysrle {

// The cell rule on closed intervals, the one copy shared by DiffCell and the
// live-set simulator (core/live_systolic.hpp).  It comes as two functions
// because the machine traces the array between step 1 and step 2.

/// Step 1's swap test: true when RegSmall's run [small_start, small_end] is
/// lexicographically larger than RegBig's [big_start, big_end].
constexpr bool registers_out_of_order(pos_t small_start, pos_t small_end,
                                      pos_t big_start, pos_t big_end) {
  return small_start > big_start ||
         (small_start == big_start && small_end > big_end);
}

/// Step 2: the paper's four min/max assignments on two ordered, non-empty
/// registers (RegSmall's start never changes).  Either register may come out
/// empty, encoded as end < start.  (The published text prints the first
/// min's second argument as "RegBig.start,1" — a scanning artefact for
/// "RegBig.start - 1"; see DESIGN.md.)
constexpr void xor_registers(pos_t& small_end, pos_t& big_start,
                             pos_t& big_end) {
  const pos_t old_small_end = small_end;
  small_end = std::min(old_small_end, big_start - 1);
  big_start = std::min(big_end + 1, std::max(old_small_end + 1, big_start));
  big_end = std::max(old_small_end, big_end);
}

/// What step 1 did in a given cell this iteration (for activity counters).
enum class OrderAction {
  kNone,      ///< registers already ordered (or too empty to matter)
  kSwapped,   ///< RegSmall and RegBig exchanged
  kPromoted,  ///< lone RegBig run moved into RegSmall
};

/// One systolic cell.  Default-constructed cells are empty.
class DiffCell {
 public:
  const std::optional<Run>& reg_small() const { return reg_small_; }
  const std::optional<Run>& reg_big() const { return reg_big_; }

  /// Loads registers directly (array initialisation / shift lane access).
  void load_small(std::optional<Run> r) { reg_small_ = r; }
  void load_big(std::optional<Run> r) { reg_big_ = r; }

  /// Takes the outgoing RegBig value, leaving the register empty
  /// (step 3 read side).
  std::optional<Run> take_big();

  /// Step 1: put the smaller run (lexicographic (start, end) order) into
  /// RegSmall.  If only RegBig holds a run, promote it.
  OrderAction order();

  /// Step 2: XOR the two registers.  Requires the cell to be ordered (step 1
  /// must run first in the same iteration).  Returns true iff both registers
  /// held runs, i.e. an XOR was actually computed.
  bool xor_step();

  /// The cell's C (complete) line: high when RegBig is empty.
  bool complete() const { return !reg_big_.has_value(); }

  /// True when both registers are empty.
  bool empty() const { return !reg_small_ && !reg_big_; }

  /// Register snapshot for tracing.
  CellSnapshot snapshot() const { return {reg_small_, reg_big_}; }

  friend bool operator==(const DiffCell&, const DiffCell&) = default;

 private:
  std::optional<Run> reg_small_;
  std::optional<Run> reg_big_;
};

}  // namespace sysrle
