#pragma once
// Process-wide metrics primitives: named counters, gauges and histograms
// behind one mutex-guarded registry.
//
// The registry is the quantitative half of the telemetry layer (the flight
// recorder's events and spans, telemetry/flight_recorder.hpp, are the
// temporal half).  Hot paths feed it per *row*,
// not per systolic iteration, so a mutex + map lookup is cheap relative to
// the work being measured; when telemetry is disabled (the default) the
// instrumentation sites never call in at all — see telemetry/telemetry.hpp
// for the one-atomic-load fast path.
//
// Metric naming convention (documented in docs/OBSERVABILITY.md):
// dot-separated "<subsystem>.<metric>" with units as a suffix where they are
// not obvious, e.g. "systolic.row_iterations", "stream.row_latency_us".

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace sysrle {

/// Bucket layout of a histogram.
struct HistogramSpec {
  enum class Scale {
    kLog2,   ///< bucket 0 covers <= 1; bucket i covers (2^(i-1), 2^i]
    kFixed,  ///< bucket i covers [i*bucket_width, (i+1)*bucket_width)
  };
  Scale scale = Scale::kLog2;
  double bucket_width = 1.0;      ///< kFixed only; must be > 0
  std::size_t bucket_count = 32;  ///< out-of-range values clamp to the ends
};

/// One distribution: bucket counts for shape plus a RunningStat (with its
/// quantile reservoir) for moments and p50/p95/p99.
class Histogram {
 public:
  explicit Histogram(const HistogramSpec& spec = {});

  /// Records one observation.
  void observe(double v);

  const HistogramSpec& spec() const { return spec_; }
  const RunningStat& stat() const { return stat_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Inclusive upper bound of bucket i.
  double bucket_upper(std::size_t i) const;

 private:
  HistogramSpec spec_;
  RunningStat stat_;
  std::vector<std::uint64_t> buckets_;
};

/// Deep copy of the registry's state at one instant.  Also the registry's
/// internal storage type (snapshots are copies taken under the lock).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;

  /// Lookup helpers returning a fallback when the metric never fired.
  std::uint64_t counter(std::string_view name, std::uint64_t fallback = 0) const;
  double gauge(std::string_view name, double fallback = 0.0) const;
  const Histogram* histogram(std::string_view name) const;
};

/// Thread-safe name-addressed metrics store.
class MetricsRegistry {
 public:
  /// Increments a counter (creating it at zero on first use).
  void add(std::string_view counter, std::uint64_t delta = 1);

  /// Sets a gauge to the latest value.
  void set_gauge(std::string_view gauge, double value);

  /// Records one observation into a histogram.  The spec only matters on the
  /// observation that creates the histogram; later calls reuse the existing
  /// bucket layout.
  void observe(std::string_view histogram, double value,
               const HistogramSpec& spec = {});

  /// Copies the whole registry state.
  MetricsSnapshot snapshot() const;

  /// Drops every metric.
  void reset();

  /// True when nothing has been recorded since construction/reset.
  bool empty() const;

 private:
  mutable std::mutex mu_;
  MetricsSnapshot state_;
};

}  // namespace sysrle
