#pragma once
// Token-bucket budget for the shard router's hedged requests.
//
// A hedge duplicates an interactive request onto a second replica, so
// unbounded hedging could double offered load exactly when the fleet has no
// headroom.  The budget makes hedges a shared, earned resource: every
// completed request earns fractional tokens, each fired hedge spends one,
// and when the bucket is empty the hedge is suppressed (and counted in
// "router.hedge_budget_exhausted_total") instead of fired.

#include <cstdint>
#include <mutex>

namespace sysrle {

/// Bucket shape.  Defaults allow short bursts (8 hedges) and a sustained
/// hedge rate of 10% of successful work.
struct RetryBudgetConfig {
  double initial_tokens = 8.0;
  double max_tokens = 8.0;
  /// Earned per recorded success; 0.1 = "hedges may be 10% of successes".
  double tokens_per_success = 0.1;
  double cost_per_retry = 1.0;
};

/// Thread-safe token bucket shared by every request of a router.
class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetConfig config = {});

  /// Spends one hedge's worth of tokens; false (and counts the exhaustion,
  /// publishing "router.hedge_budget_exhausted_total") when the bucket
  /// cannot cover it.
  bool try_spend();

  /// Earns tokens_per_success, capped at max_tokens.
  void record_success();

  /// Returns one hedge's worth of tokens (capped at max_tokens) when a
  /// spent hedge was never fired — e.g. no second healthy replica could
  /// take it.  Does not undo the exhausted count.
  void refund();

  double tokens() const;
  std::uint64_t exhausted() const;  ///< denied try_spend calls so far

 private:
  RetryBudgetConfig config_;
  mutable std::mutex mu_;
  double tokens_value_;
  std::uint64_t exhausted_ = 0;
};

}  // namespace sysrle
