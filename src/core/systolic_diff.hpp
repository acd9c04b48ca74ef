#pragma once
// The paper's systolic RLE image-difference machine: drives an array of
// DiffCells through order/xor/shift iterations until the wired-AND of the
// per-cell completion lines goes high, then gathers the RegSmall registers as
// the output row.

#include <cstddef>

#include "core/diff_cell.hpp"
#include "rle/rle_row.hpp"
#include "systolic/counters.hpp"
#include "systolic/linear_array.hpp"
#include "systolic/trace.hpp"

namespace sysrle {

/// Configuration for one systolic run.
struct SystolicConfig {
  /// Number of cells.  0 = automatic: k1 + k2 + 1, the Corollary-1.2 bound
  /// plus one spare cell so any bound violation is *detected* (a run shifted
  /// out of the last cell raises contract_error) instead of silently lost.
  /// The paper's static sizing of 2k cells (k = max runs per input row) is
  /// obtained by passing 2k explicitly.
  std::size_t capacity = 0;

  /// When true, the Theorem-1/2/3 and Corollary-1.1/2.1 checkers run after
  /// every iteration (see core/invariants.hpp).  They read every cell, so
  /// systolic_xor steps the cycle-level SystolicDiffMachine; used by tests
  /// and optionally by benches.
  bool check_invariants = false;

  /// Optional recorder producing a Figure-3-style execution trace; like
  /// check_invariants, it makes systolic_xor step SystolicDiffMachine.
  TraceRecorder* trace = nullptr;

  /// When true, gather_output canonicalizes (merges adjacent runs).  The raw
  /// machine output may contain adjacent runs; the paper leaves merging as
  /// future work (see core/compaction.hpp).  Default keeps the raw output.
  bool canonicalize_output = false;
};

/// Result of one systolic run.
struct SystolicResult {
  /// The XOR of the two input rows as produced by the machine (ordered,
  /// non-overlapping; adjacent runs possible unless canonicalize_output).
  RleRow output;

  /// Activity counters; counters.iterations is the paper's reported metric.
  SystolicCounters counters;
};

/// The number of cells a run on rows of k1 and k2 runs uses: config.capacity
/// when given, else k1 + k2 + 1.
std::size_t systolic_capacity(const SystolicConfig& config, std::size_t k1,
                              std::size_t k2);

/// Runs the systolic XOR of two RLE rows.  Both rows may be empty.  The
/// simulation enforces Theorem 1 as a hard bound: if the machine has not
/// terminated after k1 + k2 iterations, contract_error is thrown (this would
/// falsify the paper; it never fires).  Runs on the live-set simulator
/// (core/live_systolic.hpp) unless config.trace or config.check_invariants
/// asks for the cycle-level SystolicDiffMachine; output and counters are the
/// same either way.
SystolicResult systolic_xor(const RleRow& a, const RleRow& b,
                            const SystolicConfig& config = {});

/// The cycle-level machine: every cell stepped every iteration.  It is the
/// oracle the live-set simulator is pinned to, and the only path for traces
/// and the per-iteration invariant checkers (Theorems 1–3).
class SystolicDiffMachine {
 public:
  /// An unloaded workspace: owns cell storage but holds no rows.  Call
  /// load() before stepping.  Reusing one machine across many rows keeps
  /// the cell vector's allocation alive instead of paying it per row.
  SystolicDiffMachine() = default;

  /// Loads row a into the RegSmall lane and row b into the RegBig lane,
  /// cell i receiving run i of each row (the paper's initial placement).
  SystolicDiffMachine(const RleRow& a, const RleRow& b,
                      const SystolicConfig& config);

  /// Re-initialises this machine for a new row pair, recycling the cell
  /// storage.  Counters restart from zero; the previous run's state is
  /// discarded.  Equivalent to constructing a fresh machine.
  void load(const RleRow& a, const RleRow& b, const SystolicConfig& config);

  /// Wired-AND of the completion lines: true when every RegBig is empty.
  bool terminated() const;

  /// Executes one full iteration (steps 1–3).  Precondition: !terminated().
  void step();

  /// Runs until terminated; returns the iteration count of this call.
  cycle_t run();

  /// Gathers the RegSmall lane left to right (the machine's answer).
  RleRow gather_output() const;

  const LinearArray<DiffCell>& array() const { return array_; }
  const SystolicCounters& counters() const { return counters_; }

  /// k1 + k2 for this run (the Theorem-1 bound).
  cycle_t theorem1_bound() const { return k1_ + k2_; }

 private:
  std::vector<CellSnapshot> snapshots() const;
  void record_trace(MicroStep step);
  void note_occupancy();

  SystolicConfig config_;
  LinearArray<DiffCell> array_;
  SystolicCounters counters_;
  cycle_t k1_ = 0;
  cycle_t k2_ = 0;
};

class LiveSystolicSimulator;

/// Workspace-reusing variant of systolic_xor: identical output and counters,
/// but the live-set simulator runs inside `workspace`, recycling its lanes
/// instead of allocating per row.  Hot image-level loops hand each worker
/// thread one workspace (see core/row_executor.hpp).  A traced or
/// invariant-checked config still steps a fresh SystolicDiffMachine.
SystolicResult systolic_xor(const RleRow& a, const RleRow& b,
                            const SystolicConfig& config,
                            LiveSystolicSimulator& workspace);

}  // namespace sysrle
