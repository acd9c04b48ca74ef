#include "core/diff_cell.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sysrle {

std::optional<Run> DiffCell::take_big() {
  std::optional<Run> out = reg_big_;
  reg_big_.reset();
  return out;
}

OrderAction DiffCell::order() {
  if (reg_small_ && reg_big_) {
    if (registers_out_of_order(reg_small_->start, reg_small_->end(),
                               reg_big_->start, reg_big_->end())) {
      std::swap(reg_small_, reg_big_);
      return OrderAction::kSwapped;
    }
    return OrderAction::kNone;
  }
  if (!reg_small_ && reg_big_) {
    reg_small_ = reg_big_;
    reg_big_.reset();
    return OrderAction::kPromoted;
  }
  return OrderAction::kNone;
}

bool DiffCell::xor_step() {
  if (!reg_small_ || !reg_big_) return false;

  const pos_t small_start = reg_small_->start;
  pos_t small_end = reg_small_->end();
  pos_t big_start = reg_big_->start;
  pos_t big_end = reg_big_->end();

  // Step 1 must have ordered the registers.
  SYSRLE_DCHECK(!registers_out_of_order(small_start, small_end, big_start,
                                        big_end),
                "DiffCell::xor_step: registers not ordered");

  xor_registers(small_end, big_start, big_end);

  // An interval with end < start is the empty-register encoding.
  if (small_end >= small_start) {
    reg_small_ = Run::from_bounds(small_start, small_end);
  } else {
    reg_small_.reset();
  }
  if (big_end >= big_start) {
    reg_big_ = Run::from_bounds(big_start, big_end);
  } else {
    reg_big_.reset();
  }
  return true;
}

}  // namespace sysrle
