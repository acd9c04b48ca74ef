#pragma once
// Shared vocabulary of the ledger benchmark: clocks, the result record every
// workload fills in, the in-memory span recorder of the traced run, and the
// bitmap-XOR oracle every answer is checked against.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

#include "rle/rle_image.hpp"
#include "systolic/counters.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double to_d(std::uint64_t v) { return static_cast<double>(v); }

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// CPU time consumed by the whole process so far, in seconds.  Unlike wall
/// time it does not grow while the host runs someone else's work.
double process_cpu_s();

/// Command-line knobs shared by every workload.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `detail` is a
/// flat key -> value map printed in the report line before the result.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, double> detail;
  std::vector<std::string> errors;  ///< first few check failures, for humans

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail_check(const std::string& what) {
    correct = false;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// (attempted - failed) / attempted, never below 0.
inline double success_ratio(const Outcome& o) {
  return o.attempted > o.failed
             ? to_d(o.attempted - o.failed) / to_d(o.attempted)
             : 0.0;
}

/// Quantile with linear interpolation between ranks (0 for empty input).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}


/// Read-only std::streambuf over a byte string, so read_rle decodes request
/// bytes in place (the way a server decodes a received buffer).
class ByteSource : public std::streambuf {
 public:
  explicit ByteSource(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

sysrle::RleImage decode(const std::string& bytes);
std::string encode(const sysrle::RleImage& image);

/// True when two machine activity records agree on every paper counter.
bool same_counters(const sysrle::SystolicCounters& x,
                   const sysrle::SystolicCounters& y);

/// Canonical fingerprint of the per-row XOR computed on unpacked bitmaps:
/// the oracle every engine answer must match.
std::uint64_t oracle_fingerprint(const sysrle::RleImage& a,
                                 const sysrle::RleImage& b);

/// In-memory span recorder of the traced run.  Spans nest (a span opened
/// while another is open is its child); a layer's self time is its span
/// durations minus the time covered by its children.  Single-threaded: the
/// traced run replays requests on one thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Opens a span on `layer` (a string literal) for request `request`.
  [[nodiscard]] Scope span(const char* layer, std::uint64_t request) {
    if (!enabled_) return Scope{nullptr, 0};
    const std::size_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back({layer, request, Clock::now(), {}, parent});
    open_.push_back(spans_.size() - 1);
    return Scope{this, spans_.size() - 1};
  }

  /// Self time per layer in nanoseconds, and the number of spans per layer.
  struct LayerTotals {
    std::uint64_t self_ns = 0;
    std::uint64_t spans = 0;
  };
  std::map<std::string, LayerTotals> self_times() const;

  std::size_t span_count() const { return spans_.size(); }

 private:
  static constexpr std::size_t kNoParent = ~std::size_t{0};
  struct Span {
    const char* layer;
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;
  };
  void close(std::size_t index) {
    spans_[index].end = Clock::now();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Self time of `layer` per span in microseconds (0 when it never ran).
double self_us_per_span(const std::map<std::string, Tracer::LayerTotals>& t,
                        const std::string& layer);

/// Emits every per-layer metric of the ledger, in one fixed order, taking
/// values from `values` and 0 for a layer the workload does not run.
/// Throws std::logic_error on a name that is not a ledger layer metric.
void add_layer_metrics(Outcome& out,
                       const std::map<std::string, double>& values);

Outcome run_fig5(const RunArgs& args);
Outcome run_serve_fresh(const RunArgs& args);
Outcome run_serve_hot(const RunArgs& args);

}  // namespace ledger
