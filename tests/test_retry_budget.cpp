// Tests for the token-bucket budget that bounds the shard router's hedges.

#include "service/retry_budget.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {
namespace {

TEST(RetryBudget, SpendsDownToEmptyThenRefuses) {
  RetryBudgetConfig cfg;
  cfg.initial_tokens = 3.0;
  cfg.max_tokens = 3.0;
  RetryBudget budget(cfg);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  EXPECT_EQ(budget.exhausted(), 1u);
  EXPECT_DOUBLE_EQ(budget.tokens(), 0.0);
}

TEST(RetryBudget, SuccessesEarnFractionalTokens) {
  RetryBudgetConfig cfg;
  cfg.initial_tokens = 0.0;
  cfg.max_tokens = 2.0;
  cfg.tokens_per_success = 0.5;
  RetryBudget budget(cfg);
  EXPECT_FALSE(budget.try_spend());
  budget.record_success();
  EXPECT_FALSE(budget.try_spend());  // 0.5 < 1.0
  budget.record_success();
  EXPECT_TRUE(budget.try_spend());  // exactly 1.0 covers the cost
  EXPECT_FALSE(budget.try_spend());
}

TEST(RetryBudget, TokensAreCappedAtMax) {
  RetryBudgetConfig cfg;
  cfg.initial_tokens = 1.0;
  cfg.max_tokens = 2.0;
  cfg.tokens_per_success = 1.0;
  RetryBudget budget(cfg);
  for (int i = 0; i < 10; ++i) budget.record_success();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
}

TEST(RetryBudget, ExhaustionIsCountedInTelemetry) {
  reset_telemetry();
  set_telemetry_enabled(true);
  RetryBudgetConfig cfg;
  cfg.initial_tokens = 0.0;
  RetryBudget budget(cfg);
  EXPECT_FALSE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  EXPECT_EQ(global_metrics().snapshot().counter(
                "router.hedge_budget_exhausted_total"),
            2u);
  set_telemetry_enabled(false);
  reset_telemetry();
}

TEST(RetryBudget, RejectsNonsenseConfig) {
  RetryBudgetConfig bad;
  bad.cost_per_retry = 0.0;
  EXPECT_THROW(RetryBudget{bad}, contract_error);
  RetryBudgetConfig negative;
  negative.initial_tokens = -1.0;
  EXPECT_THROW(RetryBudget{negative}, contract_error);
}

TEST(RetryBudget, ConcurrentSpendersNeverOverdraw) {
  RetryBudgetConfig cfg;
  cfg.initial_tokens = 64.0;
  cfg.max_tokens = 64.0;
  RetryBudget budget(cfg);
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 32; ++i)
        if (budget.try_spend()) granted.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(granted.load(), 64);
  EXPECT_FALSE(budget.try_spend());
}

}  // namespace
}  // namespace sysrle
