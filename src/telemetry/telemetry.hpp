#pragma once
// Global telemetry switchboard: one process-wide MetricsRegistry and an
// enable flag that metric sites check before doing any work.
//
// Telemetry is OFF by default.  The disabled fast path at every
// instrumentation site is a single relaxed atomic load (telemetry_enabled()
// is inline), keeping the hot systolic row loop within noise of the
// uninstrumented build — bench_micro's BM_SystolicSimulation* pair measures
// exactly this.
//
// Who turns it on: the CLI when --metrics is passed, the `sysrle perf`
// subcommand, benches measuring instrumented throughput, and tests.
// Libraries never enable it themselves.
//
// Timed scopes (TELEMETRY_SPAN) do not read this flag: they record into the
// installed flight recorder (telemetry/flight_recorder.hpp), the one event
// stream, and cost one relaxed load when none is installed.

#include <atomic>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace sysrle {

namespace telemetry_detail {
extern std::atomic<bool> g_enabled;
}  // namespace telemetry_detail

/// True when instrumentation sites should record.  Inline single relaxed
/// atomic load — safe to call in hot loops.
inline bool telemetry_enabled() {
  return telemetry_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the global enable flag.  Thread-safe.
void set_telemetry_enabled(bool on);

/// The process-wide registry instrumentation records into.
MetricsRegistry& global_metrics();

/// Clears the global registry (the CLI scopes a run with this; tests too).
/// Does not change the enable flag.
void reset_telemetry();

}  // namespace sysrle
