#include "telemetry/telemetry.hpp"

namespace sysrle {

namespace telemetry_detail {
std::atomic<bool> g_enabled{false};
}  // namespace telemetry_detail

void set_telemetry_enabled(bool on) {
  telemetry_detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

void reset_telemetry() { global_metrics().reset(); }

}  // namespace sysrle
