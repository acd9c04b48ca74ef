#include "core/machine_farm.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/systolic_diff.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/rng.hpp"

namespace sysrle {

namespace {

/// Sentinel death time for machines that never fail.
constexpr cycle_t kNever = std::numeric_limits<cycle_t>::max();

/// Sentinel for "no machine".
constexpr std::size_t kNoMachine = std::numeric_limits<std::size_t>::max();

}  // namespace

FarmResult simulate_row_farm(const RleImage& a, const RleImage& b,
                             const FarmConfig& config) {
  TELEMETRY_SPAN("farm.simulate");
  SYSRLE_REQUIRE(a.width() == b.width() && a.height() == b.height(),
                 "simulate_row_farm: image dimensions differ");
  SYSRLE_REQUIRE(config.machines >= 1, "simulate_row_farm: need >= 1 machine");

  std::vector<cycle_t> death(config.machines, kNever);
  for (const MachineFailure& f : config.failures) {
    SYSRLE_REQUIRE(f.machine < config.machines,
                   "simulate_row_farm: failure names an unknown machine");
    death[f.machine] = std::min(death[f.machine], f.at_cycle);
  }
  std::vector<double> flaky_p(config.machines, 0.0);
  for (const FlakyMachine& f : config.flaky) {
    SYSRLE_REQUIRE(f.machine < config.machines,
                   "simulate_row_farm: flaky names an unknown machine");
    SYSRLE_REQUIRE(
        f.failure_probability >= 0.0 && f.failure_probability <= 1.0,
        "simulate_row_farm: flaky probability must be in [0, 1]");
    flaky_p[f.machine] = std::max(flaky_p[f.machine], f.failure_probability);
  }

  // Measure per-row service times with the real simulator, and keep the
  // outputs: a re-dispatched row is recomputed from its unchanged inputs, so
  // the image-level result is failure-independent.
  FarmResult result;
  std::vector<cycle_t> service;
  std::vector<RleRow> diff_rows;
  service.reserve(static_cast<std::size_t>(a.height()));
  diff_rows.reserve(static_cast<std::size_t>(a.height()));
  for (pos_t y = 0; y < a.height(); ++y) {
    SystolicResult r = systolic_xor(a.row(y), b.row(y));
    service.push_back(r.counters.iterations + config.per_row_overhead);
    r.output.canonicalize();
    diff_rows.push_back(std::move(r.output));
  }
  result.diff = RleImage(a.width(), std::move(diff_rows));

  if (config.policy == FarmConfig::Policy::kLongestFirst)
    std::sort(service.begin(), service.end(), std::greater<>());

  // List scheduling with failover.  Jobs are dispatched to the machine that
  // can start them earliest; a job interrupted by its machine's death, or
  // failed by a flaky machine, is appended back onto the queue, startable no
  // earlier than the failure and excluded from the machine that just burned
  // it.
  struct Job {
    cycle_t service = 0;
    cycle_t earliest = 0;
    std::size_t exclude = kNoMachine;  ///< machine that just failed this job
    std::uint64_t attempts = 0;
  };
  std::vector<Job> queue;
  queue.reserve(service.size());
  for (const cycle_t s : service) queue.push_back({s, 0, kNoMachine, 0});

  std::vector<cycle_t> free_at(config.machines, 0);
  std::vector<bool> dead(config.machines, false);
  // Cycles each machine spent productively computing rows (burned cycles on
  // an interrupted or failed row count as lost, not busy).
  std::vector<cycle_t> busy(config.machines, 0);
  std::vector<CircuitBreaker> breakers;
  if (config.enable_breakers) {
    breakers.reserve(config.machines);
    for (std::size_t m = 0; m < config.machines; ++m)
      breakers.emplace_back(config.breaker, "machine." + std::to_string(m));
  }
  result.dispatches.assign(config.machines, 0);
  Rng coin(config.seed);
  // Re-dispatch loops cannot run forever: a board where every machine keeps
  // failing every row is reported as a contract violation, not a hang.
  const std::uint64_t max_attempts = 8 * (config.machines + 1);

  for (std::size_t j = 0; j < queue.size(); ++j) {  // grows on re-dispatch
    const Job job = queue[j];
    while (true) {
      // Earliest-start machine among the candidates.  A tripped breaker
      // pushes its machine's candidate start to the end of the open window
      // (where allow() will admit it as a half-open probe).
      std::size_t best = kNoMachine;
      cycle_t best_start = kNever;
      bool alternatives = false;  // any alive machine besides job.exclude?
      for (std::size_t m = 0; m < config.machines; ++m)
        if (!dead[m] && m != job.exclude) alternatives = true;
      for (std::size_t m = 0; m < config.machines; ++m) {
        if (dead[m]) continue;
        if (m == job.exclude && alternatives) continue;
        cycle_t start = std::max(free_at[m], job.earliest);
        if (config.enable_breakers &&
            breakers[m].state() == BreakerState::kOpen)
          start = std::max(start, breakers[m].reopen_at());
        if (start < best_start) {
          best_start = start;
          best = m;
        }
      }
      SYSRLE_CHECK(
          best < config.machines,
          "simulate_row_farm: every machine died before the board finished");
      if (death[best] <= best_start) {
        dead[best] = true;  // died while idle; pick another machine
        continue;
      }
      if (config.enable_breakers) {
        const bool was_half_open =
            breakers[best].state() == BreakerState::kOpen ||
            breakers[best].state() == BreakerState::kHalfOpen;
        if (!breakers[best].allow(best_start)) {
          // Half-open probe slots are taken; the machine is unavailable
          // until its probes resolve.  Model that as busy-until-reopen, and
          // always advance the candidate start so the search terminates.
          free_at[best] = std::max({free_at[best], best_start + 1,
                                    breakers[best].reopen_at()});
          continue;
        }
        if (was_half_open) ++result.probe_dispatches;
      }
      ++result.dispatches[best];
      const cycle_t done = best_start + job.service;
      if (death[best] < done) {
        // Interrupted mid-row: the cycles are burned, the machine is gone,
        // and a survivor re-runs the row once the failure is known.
        result.lost_cycles += death[best] - best_start;
        ++result.redispatched_rows;
        dead[best] = true;
        queue.push_back({job.service, death[best], kNoMachine, 0});
        break;
      }
      if (flaky_p[best] > 0.0 && coin.bernoulli(flaky_p[best])) {
        // Flaky failure, detected at row completion: the full service time
        // is burned and the row is re-dispatched away from this machine.
        free_at[best] = done;
        result.faulty_cycles += job.service;
        ++result.faulty_dispatches;
        if (config.enable_breakers) {
          const BreakerState before = breakers[best].state();
          breakers[best].record_failure(done);
          if (before != BreakerState::kOpen &&
              breakers[best].state() == BreakerState::kOpen)
            ++result.breaker_opens;
        }
        SYSRLE_CHECK(job.attempts + 1 < max_attempts,
                     "simulate_row_farm: no progress — every machine keeps "
                     "failing this row");
        queue.push_back({job.service, done, best, job.attempts + 1});
        break;
      }
      if (config.enable_breakers) breakers[best].record_success(done);
      free_at[best] = done;
      busy[best] += job.service;
      result.makespan = std::max(result.makespan, done);
      result.total_work += job.service;
      result.critical_row = std::max(result.critical_row, job.service);
      break;
    }
  }

  // A machine whose death precedes the end of the board died during the run
  // even if it was idle at the time.
  for (std::size_t m = 0; m < config.machines; ++m)
    if (death[m] < result.makespan) dead[m] = true;
  result.failed_machines = static_cast<std::size_t>(
      std::count(dead.begin(), dead.end(), true));
  result.degraded = result.failed_machines > 0 ||
                    result.redispatched_rows > 0 ||
                    result.faulty_dispatches > 0;
  if (config.enable_breakers) {
    result.breaker_states.reserve(config.machines);
    for (const CircuitBreaker& br : breakers)
      result.breaker_states.push_back(br.state());
  }

  if (result.makespan > 0) {
    result.utilisation =
        static_cast<double>(result.total_work) /
        (static_cast<double>(config.machines) *
         static_cast<double>(result.makespan));
  }

  if (telemetry_enabled()) {
    MetricsRegistry& m = global_metrics();
    m.add("farm.simulations");
    m.add("farm.redispatched_rows", result.redispatched_rows);
    m.add("farm.faulty_dispatches", result.faulty_dispatches);
    m.add("farm.probe_dispatches", result.probe_dispatches);
    m.set_gauge("farm.utilisation", result.utilisation);
    m.set_gauge("farm.makespan_cycles",
                static_cast<double>(result.makespan));
    if (result.makespan > 0) {
      for (std::size_t i = 0; i < config.machines; ++i) {
        m.set_gauge("farm.machine." + std::to_string(i) + ".utilisation",
                    static_cast<double>(busy[i]) /
                        static_cast<double>(result.makespan));
      }
    }
  }
  return result;
}

}  // namespace sysrle
