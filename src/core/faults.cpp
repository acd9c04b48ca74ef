#include "core/faults.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "core/invariants.hpp"
#include "rle/ops.hpp"

namespace sysrle {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNoSwap:
      return "no-swap";
    case FaultKind::kCorruptXorEnd:
      return "corrupt-xor-end";
    case FaultKind::kDropShift:
      return "drop-shift";
    case FaultKind::kStuckCompleteHigh:
      return "stuck-complete-high";
  }
  return "unknown";
}

const char* to_string(FaultActivation activation) {
  switch (activation) {
    case FaultActivation::kPermanent:
      return "permanent";
    case FaultActivation::kTransient:
      return "transient";
    case FaultActivation::kIntermittent:
      return "intermittent";
  }
  return "unknown";
}

FaultArbiter::FaultArbiter(const FaultSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  if (spec_.activation == FaultActivation::kIntermittent)
    SYSRLE_REQUIRE(spec_.probability >= 0.0 && spec_.probability <= 1.0,
                   "FaultArbiter: intermittent probability outside [0, 1]");
}

bool FaultArbiter::next() {
  ++cycle_;
  switch (spec_.activation) {
    case FaultActivation::kPermanent:
      return true;
    case FaultActivation::kTransient:
      return cycle_ >= spec_.window_start &&
             cycle_ < spec_.window_start + spec_.window_length;
    case FaultActivation::kIntermittent:
      return rng_.bernoulli(spec_.probability);
  }
  return false;
}

FaultyDiffMachine::FaultyDiffMachine(const RleRow& a, const RleRow& b,
                                     const FaultSpec& fault)
    : fault_(fault),
      array_(std::max<std::size_t>(a.run_count() + b.run_count() + 1, 1)) {
  SYSRLE_REQUIRE(fault_.cell < array_.size(),
                 "FaultyDiffMachine: fault cell out of range");
  for (std::size_t i = 0; i < a.run_count(); ++i)
    array_.cell(i).load_small(a[i]);
  for (std::size_t i = 0; i < b.run_count(); ++i)
    array_.cell(i).load_big(b[i]);
}

bool FaultyDiffMachine::terminated(bool fault_active) const {
  const bool stuck =
      fault_active && fault_.kind == FaultKind::kStuckCompleteHigh;
  for (cell_index_t i = 0; i < array_.size(); ++i) {
    if (stuck && i == fault_.cell) continue;  // the stuck line reports done
    if (!array_.cell(i).complete()) return false;
  }
  return true;
}

void FaultyDiffMachine::step(bool fault_active) {
  ++iterations_;
  const std::size_t n = array_.size();
  auto hit = [&](FaultKind kind, cell_index_t i) {
    return fault_active && fault_.kind == kind && i == fault_.cell;
  };

  // Step 1 — order, with the comparator fault suppressing the swap (the
  // promotion path is a separate datapath and still works).
  for (cell_index_t i = 0; i < n; ++i) {
    DiffCell& c = array_.cell(i);
    if (hit(FaultKind::kNoSwap, i)) {
      if (!c.reg_small() && c.reg_big()) {
        c.load_small(c.take_big());
      }
      continue;  // swap suppressed
    }
    c.order();
  }

  // Step 2 — XOR, with the min-unit fault stretching RegSmall by one.
  for (cell_index_t i = 0; i < n; ++i) {
    DiffCell& c = array_.cell(i);
    const bool both = c.reg_small() && c.reg_big();
    if (hit(FaultKind::kNoSwap, i) && both) {
      // Run the datapath even on unordered registers, as the broken
      // hardware would: emulate by applying the step-2 formulas manually.
      const pos_t small_start = c.reg_small()->start;
      pos_t small_end = c.reg_small()->end();
      pos_t big_start = c.reg_big()->start;
      pos_t big_end = c.reg_big()->end();
      xor_registers(small_end, big_start, big_end);
      c.load_small(small_end >= small_start
                       ? std::optional<Run>(Run::from_bounds(small_start, small_end))
                       : std::nullopt);
      c.load_big(big_end >= big_start
                     ? std::optional<Run>(Run::from_bounds(big_start, big_end))
                     : std::nullopt);
      continue;
    }
    c.xor_step();
    if (hit(FaultKind::kCorruptXorEnd, i) && c.reg_small()) {
      const Run s = *c.reg_small();
      c.load_small(Run{s.start, s.length + 1});
    }
  }

  // Step 3 — shift right, with the dead output register dropping its run.
  std::optional<Run> carry;
  for (cell_index_t i = 0; i < n; ++i) {
    std::optional<Run> outgoing = array_.cell(i).take_big();
    if (hit(FaultKind::kDropShift, i)) outgoing.reset();
    array_.cell(i).load_big(carry);
    carry = outgoing;
  }
  // carry leaving the last cell is discarded (would be checked in the
  // healthy machine; a faulty machine gets no such courtesy).
}

RleRow FaultyDiffMachine::gather_output() const {
  std::vector<Run> runs;
  for (cell_index_t i = 0; i < array_.size(); ++i)
    if (array_.cell(i).reg_small()) runs.push_back(*array_.cell(i).reg_small());
  return RleRow(std::move(runs));  // validates ordering/overlap
}

FaultOutcome run_with_fault(const RleRow& a, const RleRow& b,
                            const FaultSpec& fault) {
  const std::size_t k1 = a.run_count();
  const std::size_t k2 = b.run_count();

  FaultyDiffMachine machine(a, b, fault);
  FaultArbiter arbiter(fault);
  const InvariantContext ctx = make_invariant_context(a, b);
  FaultOutcome outcome;
  const cycle_t limit = 2 * static_cast<cycle_t>(k1 + k2) + 4;

  while (true) {
    const bool active = arbiter.next();
    if (machine.terminated(active)) break;
    if (machine.iterations() >= limit) {
      outcome.timed_out = true;
      break;
    }
    machine.step(active);
    outcome.iterations = machine.iterations();

    // Online self-test: the section-4 checkers.
    if (!outcome.detected_by_invariants) {
      try {
        check_end_of_iteration(machine.array(), ctx, machine.iterations());
      } catch (const contract_error&) {
        outcome.detected_by_invariants = true;
      }
    }
  }

  // Judge the final answer (gather may itself be malformed — that counts as
  // wrong output AND detection, since a real controller validates).
  try {
    std::vector<Run> runs;
    for (cell_index_t i = 0; i < machine.array().size(); ++i)
      if (machine.array().cell(i).reg_small())
        runs.push_back(*machine.array().cell(i).reg_small());
    const RleRow out = xor_run_multiset(std::move(runs));
    outcome.wrong_output = out != ctx.expected_xor.canonical();
  } catch (const contract_error&) {
    outcome.wrong_output = true;
    outcome.detected_by_invariants = true;
  }
  if (!outcome.detected_by_invariants) {
    try {
      check_final_state(machine.array(), ctx);
    } catch (const contract_error&) {
      outcome.detected_by_invariants = true;
    }
  }
  return outcome;
}

}  // namespace sysrle
