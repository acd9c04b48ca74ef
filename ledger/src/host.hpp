#pragma once
// The host block every result carries: what the host claims (hardware
// threads, cgroup quota) beside what it delivers (spin-loop capacity).

#include <map>
#include <string>

namespace ledger {

/// Numeric host facts, keyed by name (e.g. "spin_capacity_4t").
std::map<std::string, double> host_numbers();

/// Text host facts: build type, compiler, SIMD dispatch level, cgroup quota.
std::map<std::string, std::string> host_strings();

}  // namespace ledger
