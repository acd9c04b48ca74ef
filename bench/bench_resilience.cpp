// Resilience extension: what does fault tolerance cost?
//
// Three questions, three tables:
//   1. Checking tax — wall-clock of the checked engine (invariant checkers
//      armed every iteration + watchdog) vs the two bare simulators of the
//      paper's machine (the live-set simulator behind systolic_xor and its
//      cycle-level oracle, SystolicDiffMachine) and the sequential merge
//      baseline, on a healthy machine.
//   2. Recovery tax — cycles burned per row when a permanent / transient /
//      intermittent fault is present, split into retry cost and fallback
//      cost, from a small fault-injection campaign.
//   3. Degraded farm — board makespan when machines die mid-board and their
//      in-flight rows are re-dispatched to survivors.
//
// Flags: --json FILE writes a sysrle.bench.v1 report; --smoke shrinks the
// board and the campaign for CI.  Its checks are deterministic: the live-set
// simulator matches the oracle on every row, every campaign recovers every
// trial, and a degraded farm's image equals the healthy one.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "common/fixed_table.hpp"
#include "core/campaign.hpp"
#include "core/checked_diff.hpp"
#include "core/machine_farm.hpp"
#include "core/live_systolic.hpp"
#include "core/systolic_diff.hpp"
#include "baseline/sequential_diff.hpp"
#include "telemetry/bench_report.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace {

using namespace sysrle;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Board {
  RleImage a{0, 0};
  RleImage b{0, 0};
};

Board make_board(pos_t width, pos_t height, double error_fraction) {
  Rng rng(20260805);
  RowGenParams rp;
  rp.width = width;
  Board board;
  board.a = generate_image(rng, height, rp);
  board.b = RleImage(width, height);
  for (pos_t y = 0; y < height; ++y) {
    ErrorGenParams ep;
    ep.error_fraction = error_fraction;
    board.b.set_row(y, inject_errors(rng, board.a.row(y), width, ep));
  }
  return board;
}

/// Steps the cycle-level oracle over one row pair.
SystolicResult oracle_xor(const RleRow& a, const RleRow& b,
                          SystolicDiffMachine& machine) {
  machine.load(a, b, {});
  machine.run();
  return {machine.gather_output(), machine.counters()};
}

void checking_tax(const Board& board, int repeats, BenchReport& report) {
  std::cout << "--- 1. checking tax (healthy machine, "
            << board.a.height() << " rows of " << board.a.width()
            << " px) ---\n\n";
  FixedTable table;
  table.set_header({"engine", "wall-s", "rows/s", "vs-live", "vs-oracle"});

  auto time_rows = [&](auto&& per_row) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < repeats; ++rep)
      for (pos_t y = 0; y < board.a.height(); ++y)
        per_row(board.a.row(y), board.b.row(y));
    return seconds_since(t0);
  };

  const double rows =
      static_cast<double>(board.a.height()) * static_cast<double>(repeats);
  LiveSystolicSimulator live;
  SystolicDiffMachine machine;
  const double bare = time_rows([&live](const RleRow& ra, const RleRow& rb) {
    (void)systolic_xor(ra, rb, {}, live);
  });
  const double oracle =
      time_rows([&machine](const RleRow& ra, const RleRow& rb) {
        (void)oracle_xor(ra, rb, machine);
      });
  const double checked = time_rows([](const RleRow& ra, const RleRow& rb) {
    (void)checked_xor(ra, rb);
  });
  const double sequential = time_rows([](const RleRow& ra, const RleRow& rb) {
    (void)sequential_xor(ra, rb);
  });

  // The two simulators must agree row by row: output and every counter.
  bool live_matches_oracle = true;
  for (pos_t y = 0; y < board.a.height(); ++y) {
    const SystolicResult l = systolic_xor(board.a.row(y), board.b.row(y), {}, live);
    const SystolicResult o = oracle_xor(board.a.row(y), board.b.row(y), machine);
    if (l.output != o.output || l.counters != o.counters)
      live_matches_oracle = false;
  }

  auto add = [&](const char* name, double s) {
    table.add_row({name, FixedTable::num(s, 4), FixedTable::num(rows / s, 0),
                   FixedTable::num(s / bare, 2),
                   FixedTable::num(s / oracle, 2)});
  };
  add("systolic (live-set)", bare);
  add("systolic oracle (cycle-level)", oracle);
  add("checked (invariants+watchdog)", checked);
  add("sequential merge", sequential);
  std::cout << table.str() << '\n';
  std::cout << "CSV:\n" << table.csv() << '\n';

  report.set_scalar("live_rows_per_s", rows / bare);
  report.set_scalar("oracle_rows_per_s", rows / oracle);
  report.set_scalar("checked_rows_per_s", rows / checked);
  report.set_scalar("sequential_rows_per_s", rows / sequential);
  report.set_scalar("checked_over_live", checked / bare);
  report.set_scalar("checked_over_oracle", checked / oracle);
  report.set_check("live_matches_oracle", live_matches_oracle);
}

void recovery_tax(const Board& board, std::size_t cell_stride,
                  BenchReport& report) {
  std::cout << "--- 2. recovery tax (fault-injection campaign) ---\n\n";
  FixedTable table;
  table.set_header({"model", "trials", "detected", "retried", "fell-back",
                    "wasted-cycles", "wasted/detected"});

  bool all_recovered = true;
  for (const FaultActivation activation :
       {FaultActivation::kPermanent, FaultActivation::kTransient,
        FaultActivation::kIntermittent}) {
    CampaignConfig cfg;
    cfg.activations = {activation};
    cfg.cell_stride = cell_stride;  // thin the sweep; this is a cost probe
    const CampaignResult r = run_fault_campaign(board.a, board.b, cfg);
    all_recovered = all_recovered && r.all_recovered();
    const double per_detected =
        r.total.detected
            ? static_cast<double>(r.total.wasted_cycles) /
                  static_cast<double>(r.total.detected)
            : 0.0;
    table.add_row({to_string(activation), FixedTable::num(r.total.trials),
                   FixedTable::num(r.total.detected),
                   FixedTable::num(r.total.recovered_by_retry),
                   FixedTable::num(r.total.fell_back),
                   FixedTable::num(r.total.wasted_cycles),
                   FixedTable::num(per_detected, 1)});
    report.set_scalar(std::string("wasted_per_detected_") +
                          to_string(activation),
                      per_detected);
  }
  std::cout << table.str() << '\n';
  std::cout << "CSV:\n" << table.csv() << '\n';
  report.set_check("campaign_all_recovered", all_recovered);
}

void degraded_farm(const Board& board, BenchReport& report) {
  std::cout << "--- 3. degraded farm (machines dying mid-board) ---\n\n";
  FixedTable table;
  table.set_header({"deaths", "makespan", "vs-healthy", "redispatched",
                    "lost-cycles", "utilisation"});

  FarmConfig healthy;
  healthy.machines = 8;
  const FarmResult base = simulate_row_farm(board.a, board.b, healthy);

  bool image_unchanged = true;
  std::vector<double> deaths_axis, makespans;
  for (const std::size_t deaths : {0u, 1u, 2u, 4u}) {
    FarmConfig cfg = healthy;
    for (std::size_t i = 0; i < deaths; ++i)
      cfg.failures.push_back({i, base.makespan / 4 * (i + 1)});
    const FarmResult r = simulate_row_farm(board.a, board.b, cfg);
    image_unchanged = image_unchanged && r.diff == base.diff;
    deaths_axis.push_back(static_cast<double>(deaths));
    makespans.push_back(static_cast<double>(r.makespan));
    table.add_row(
        {FixedTable::num(static_cast<std::uint64_t>(deaths)),
         FixedTable::num(r.makespan),
         FixedTable::num(static_cast<double>(r.makespan) /
                             static_cast<double>(base.makespan),
                         3),
         FixedTable::num(r.redispatched_rows),
         FixedTable::num(r.lost_cycles), FixedTable::num(r.utilisation, 3)});
  }
  std::cout << table.str() << '\n';
  std::cout << "CSV:\n" << table.csv() << '\n';
  report.set_x("deaths", deaths_axis);
  report.add_series("farm_makespan_cycles", makespans);
  report.set_check("degraded_farm_image_unchanged", image_unchanged);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_resilience [--json FILE] [--smoke]\n";
      return 2;
    }
  }

  const pos_t width = 2048;
  const pos_t height = smoke ? 16 : 64;
  const int repeats = smoke ? 2 : 5;
  const std::size_t cell_stride = smoke ? 8 : 4;
  BenchReport report("resilience");
  report.set_param("width", static_cast<std::int64_t>(width));
  report.set_param("height", static_cast<std::int64_t>(height));
  report.set_param("error_fraction", 0.02);
  report.set_param("repeats", static_cast<std::int64_t>(repeats));
  report.set_param("cell_stride", static_cast<std::int64_t>(cell_stride));
  report.set_param("smoke", smoke ? "true" : "false");

  std::cout << "=== Fault-tolerance cost model ===\n\n";
  const Board board = make_board(width, height, 0.02);
  checking_tax(board, repeats, report);
  recovery_tax(board, cell_stride, report);
  degraded_farm(board, report);
  std::cout << "reading: checking costs a constant factor over the bare\n"
               "simulators; transient faults are absorbed by retry (cheap),\n"
               "permanent ones by fallback (bounded by the sequential merge\n"
               "cost); a dying machine adds its lost work plus re-dispatch\n"
               "latency to the makespan but never changes the image result.\n";
  if (!json_path.empty()) report.write_file(json_path);
  return report.all_checks_pass() ? 0 : 1;
}
