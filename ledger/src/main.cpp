// sysrle_ledger: the repository's fixed benchmark.
//
//   sysrle_ledger --workload fig5_rows|serve_fresh|serve_hot --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//
// Prints one report line (host block, workload detail, check failures) and,
// as the last line, the result object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
// Exit status: 0 when every correctness check held, 1 when one failed, 2 on
// a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "host.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sysrle_ledger: " << why
            << "\nusage: sysrle_ledger"
               " --workload fig5_rows|serve_fresh|serve_hot"
               " --seed N --seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ledger::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::invalid_argument&) {
      usage("bad value for " + flag + ": " + value);
    } catch (const std::out_of_range&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  if (args.work_dir.empty()) usage("--work-dir is required");

  ledger::Outcome out;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "fig5_rows") {
      out = ledger::run_fig5(args);
    } else if (args.workload == "serve_fresh") {
      out = ledger::run_serve_fresh(args);
    } else if (args.workload == "serve_hot") {
      out = ledger::run_serve_hot(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "sysrle_ledger: " << e.what() << '\n';
    return 1;
  }

  // Report line: everything a later reader needs to trust the numbers.
  std::string report = "{\"schema\":\"sysrle.ledger.v1\",\"workload\":" +
                       json_string(args.workload) +
                       ",\"seconds\":" + json_number(args.seconds) +
                       ",\"trace\":" + (args.trace ? "1" : "0") + ",\"host\":{";
  bool first = true;
  for (const auto& [k, v] : ledger::host_strings()) {
    report += (first ? "" : ",") + json_string(k) + ":" + json_string(v);
    first = false;
  }
  for (const auto& [k, v] : ledger::host_numbers())
    report += "," + json_string(k) + ":" + json_number(v);
  report += ",\"seed\":" + std::to_string(args.seed) + "},\"detail\":{";
  first = true;
  for (const auto& [k, v] : out.detail) {
    report += (first ? "" : ",") + json_string(k) + ":" + json_number(v);
    first = false;
  }
  report += "},\"errors\":[";
  for (std::size_t i = 0; i < out.errors.size(); ++i)
    report += (i ? "," : "") + json_string(out.errors[i]);
  report += "]}";
  std::cout << report << '\n';

  // One operation can fail more than one check; it is one failed operation.
  const std::uint64_t failed = std::min(out.failed, out.attempted);
  std::string result = std::string("{\"correct\":") +
                       (out.correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(out.attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const ledger::Metric& m = out.metrics[i];
    result += (i ? "," : "") + json_string(m.name) + ":{\"value\":" +
              json_number(m.value) + ",\"unit\":" + json_string(m.unit) + "}";
  }
  result += "}}";
  std::cout << result << std::endl;
  return out.correct ? 0 : 1;
}
