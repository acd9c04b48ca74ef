#include "host.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "baseline/simd_dispatch.hpp"

namespace ledger {
namespace {

/// Iterations of a dependent integer loop each of `threads` threads
/// completes in a fixed window, summed.  The ratio to one thread is the
/// parallel capacity the host actually delivers right now.
double spin_iterations(unsigned threads) {
  constexpr auto kWindow = std::chrono::milliseconds(150);  // see host_numbers
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t x = t + 1;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 1024; ++i)
          x = x * 6364136223846793005ull + 1442695040888963407ull;
        ++n;
      }
      counts[t] = n + (x & 1);
    });
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(kWindow);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : pool) th.join();
  double total = 0.0;
  for (std::uint64_t c : counts) total += static_cast<double>(c);
  return total;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// cgroup v2 `cpu.max`, or the v1 cfs quota/period pair in the same
/// "<quota|max> <period>" shape; "unknown" when neither is readable.
std::string cgroup_cpu_max() {
  const std::string v2 = read_first_line("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return v2;
  const std::string quota =
      read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period =
      read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (quota.empty() || period.empty()) return "unknown";
  return (quota == "-1" ? std::string("max") : quota) + " " + period;
}

}  // namespace

std::map<std::string, double> host_numbers() {
  std::map<std::string, double> out;
  out["hardware_concurrency"] = std::thread::hardware_concurrency();
  const double one = spin_iterations(1);
  // Dependent multiply-adds per second on one thread.
  out["spin_rate_1t_per_s"] = one * 1024.0 / 0.150;
  out["spin_capacity_1t"] = 1.0;
  for (unsigned t : {2u, 4u})
    out["spin_capacity_" + std::to_string(t) + "t"] =
        one > 0 ? spin_iterations(t) / one : 0.0;
  return out;
}

std::map<std::string, std::string> host_strings() {
  std::map<std::string, std::string> out;
  out["cgroup_cpu_max"] = cgroup_cpu_max();
  out["build_type"] = LEDGER_BUILD_TYPE;
  out["compiler"] = LEDGER_COMPILER;
  out["simd_level"] = sysrle::to_string(sysrle::active_simd_level());
  return out;
}

}  // namespace ledger
