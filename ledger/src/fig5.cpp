// fig5_rows: the paper's Figure-5 row pairs through image_diff, single
// threaded, with no service, store or I/O around the engines.
//
// Rows are 10000 px at 30 % density with runs of 4-20 px; the scan of each
// pair carries error runs of 2-6 px at 1, 3, 10 or 30 % of its pixels.  A
// block is four row pairs, one per error point, diffed by one image_diff
// call.  The answer path uses default options, the model path asks for the
// systolic machine's counters; both run on the calling thread and alternate
// block by block so host noise lands on both alike.

#include <array>
#include <string>

#include "common.hpp"
#include "core/image_diff.hpp"
#include "core/systolic_diff.hpp"
#include "rle/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace ledger {
namespace {

using sysrle::DiffEngine;
using sysrle::ImageDiffOptions;
using sysrle::RleImage;
using sysrle::SystolicCounters;

constexpr sysrle::pos_t kWidth = 10000;
constexpr std::array<double, 4> kErrorPoints = {0.01, 0.03, 0.10, 0.30};
constexpr std::size_t kBlocks = 256;  ///< fixed input set: 1024 row pairs
constexpr int kSetupRepeats = 7;

struct Block {
  RleImage a{0, 0};
  RleImage b{0, 0};
  std::uint64_t oracle = 0;
  SystolicCounters model;  ///< reference machine counters, summed
};

std::vector<Block> make_blocks(std::uint64_t seed) {
  sysrle::Rng rng(seed * 0x9e3779b97f4a7c15ull + 5);
  const sysrle::RowGenParams row_params;  // width 10000, runs 4-20, 30 %
  std::vector<Block> blocks(kBlocks);
  for (Block& blk : blocks) {
    std::vector<sysrle::RleRow> ra;
    std::vector<sysrle::RleRow> rb;
    for (double e : kErrorPoints) {
      sysrle::ErrorGenParams err;
      err.error_fraction = e;
      sysrle::RowPairSample s = sysrle::generate_pair(rng, row_params, err);
      ra.push_back(std::move(s.first));
      rb.push_back(std::move(s.second));
    }
    blk.a = RleImage(kWidth, std::move(ra));
    blk.b = RleImage(kWidth, std::move(rb));
  }
  return blocks;
}

ImageDiffOptions answer_options() {
  ImageDiffOptions o;
  o.threads = 1;
  return o;
}

ImageDiffOptions engine_options(DiffEngine engine) {
  ImageDiffOptions o;
  o.engine = engine;
  o.threads = 1;
  return o;
}

/// Oracle fingerprints and reference-machine counters for every block; the
/// returned sum is the fixed input set's model activity.
SystolicCounters prepare_checks(std::vector<Block>& blocks) {
  SystolicCounters total;
  sysrle::SystolicDiffMachine machine;
  for (Block& blk : blocks) {
    blk.oracle = oracle_fingerprint(blk.a, blk.b);
    for (sysrle::pos_t y = 0; y < blk.a.height(); ++y) {
      machine.load(blk.a.row(y), blk.b.row(y), {});
      machine.run();
      blk.model += machine.counters();
    }
    total += blk.model;
  }
  return total;
}

}  // namespace

Outcome run_fig5(const RunArgs& args) {
  Outcome out;

  // Set-up: generating the fixed row-pair set, repeated; median reported.
  std::vector<double> setup_s;
  std::vector<Block> blocks;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    blocks = make_blocks(args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const SystolicCounters model_total = prepare_checks(blocks);
  const double rows_per_block = static_cast<double>(kErrorPoints.size());

  const ImageDiffOptions answer = answer_options();
  const ImageDiffOptions model = engine_options(DiffEngine::kSystolic);
  const ImageDiffOptions sequential =
      engine_options(DiffEngine::kSequentialMerge);

  auto check_answer = [&](const Block& blk, const sysrle::ImageDiffResult& r,
                          const char* path) {
    ++out.attempted;
    if (sysrle::canonical_fingerprint(r.diff) != blk.oracle)
      out.fail_check(std::string(path) + ": answer differs from bitmap XOR");
  };
  auto check_model = [&](const Block& blk, const sysrle::ImageDiffResult& r) {
    if (!same_counters(r.counters, blk.model))
      out.fail_check("model: counters differ from SystolicDiffMachine");
  };

  if (!args.trace) {
    std::vector<double> answer_ms;
    double answer_cpu = 0.0;
    double model_cpu = 0.0;
    std::uint64_t model_calls = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0;
         seconds_between(start, Clock::now()) < args.seconds; ++i) {
      const Block& blk = blocks[i % blocks.size()];
      for (int leg = 0; leg < 2; ++leg) {
        const bool answer_leg = (leg == 0) == (i % 2 == 0);
        const double c0 = process_cpu_s();
        const auto t0 = Clock::now();
        const sysrle::ImageDiffResult r =
            sysrle::image_diff(blk.a, blk.b, answer_leg ? answer : model);
        const double dt = seconds_between(t0, Clock::now());
        const double cpu = process_cpu_s() - c0;
        check_answer(blk, r, answer_leg ? "answer" : "model");
        if (answer_leg) {
          answer_ms.push_back(dt * 1e3);
          answer_cpu += cpu;
        } else {
          model_cpu += cpu;
          ++model_calls;
          check_model(blk, r);
        }
      }
    }
    const double calls = static_cast<double>(answer_ms.size());
    out.add("p50_ms", quantile(answer_ms, 0.50), "ms");
    out.add("requests_per_cpu_s", calls / answer_cpu, "1/cpu_s");
    out.add("diff_rows_per_cpu_s", calls * rows_per_block / answer_cpu,
            "1/cpu_s");
    out.add("model_rows_per_cpu_s",
            to_d(model_calls) * rows_per_block / model_cpu, "1/cpu_s");
    out.add("model_iterations", to_d(model_total.iterations), "count");
    out.add("success_ratio", success_ratio(out), "ratio");
    out.add("setup_s", median(setup_s), "s");
    out.detail["answer_calls"] = calls;
    out.detail["p90_ms"] = quantile(answer_ms, 0.90);
    out.detail["p95_ms"] = quantile(answer_ms, 0.95);
    out.detail["p99_ms"] = quantile(answer_ms, 0.99);
    out.detail["model_calls"] = to_d(model_calls);
    out.detail["rows_per_call"] = rows_per_block;
    return out;
  }

  // Traced run: every block runs twice, once with spans recorded and once
  // without, in alternating order; the ratio of the two totals is the
  // tracer's overhead.
  Tracer tracer(true);
  Tracer untraced(false);
  double pass_s[2] = {0.0, 0.0};
  double traced_rows = 0.0;
  SystolicCounters traced_model;
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_between(start, Clock::now()) < args.seconds;
       ++i) {
    const Block& blk = blocks[i % blocks.size()];
    for (int leg = 0; leg < 2; ++leg) {
      const int on = (leg == 0) == (i % 2 == 0) ? 1 : 0;
      Tracer& t = on ? tracer : untraced;
      sysrle::ImageDiffResult ra;
      sysrle::ImageDiffResult rm;
      sysrle::ImageDiffResult rs;
      std::uint64_t oracle = 0;
      const auto t0 = Clock::now();
      {
        auto s = t.span("core.answer", i);
        ra = sysrle::image_diff(blk.a, blk.b, answer);
      }
      {
        auto s = t.span("core.model", i);
        rm = sysrle::image_diff(blk.a, blk.b, model);
      }
      {
        auto s = t.span("baseline.engine", i);
        rs = sysrle::image_diff(blk.a, blk.b, sequential);
      }
      {
        auto s = t.span("baseline.oracle", i);
        oracle = oracle_fingerprint(blk.a, blk.b);
      }
      pass_s[on] += seconds_between(t0, Clock::now());
      if (on) {
        traced_rows += rows_per_block;
        traced_model += rm.counters;
      }
      check_answer(blk, ra, "answer");
      check_answer(blk, rm, "model");
      check_answer(blk, rs, "sequential");
      check_model(blk, rm);
      if (oracle != blk.oracle) out.fail_check("oracle: not deterministic");
    }
  }
  const auto self = tracer.self_times();
  auto row_us = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0
                            : to_d(it->second.self_ns) / 1e3 / traced_rows;
  };
  const auto model_it = self.find("core.model");
  const double model_ns =
      model_it == self.end() ? 0.0 : to_d(model_it->second.self_ns);
  const double overhead = pass_s[0] > 0 ? pass_s[1] / pass_s[0] : 0.0;

  add_layer_metrics(out, {
      {"core.model_row_us", row_us("core.model")},
      {"systolic.ns_per_iteration",
       traced_model.iterations ? model_ns / to_d(traced_model.iterations)
                               : 0.0},
      {"systolic.iterations", to_d(model_total.iterations)},
      {"systolic.swaps", to_d(model_total.swaps)},
      {"systolic.promotions", to_d(model_total.promotions)},
      {"systolic.shifts", to_d(model_total.shifts)},
      {"core.answer_row_us", row_us("core.answer")},
      {"baseline.engine_row_us", row_us("baseline.engine")},
      {"baseline.oracle_row_us", row_us("baseline.oracle")},
      {"trace.overhead_ratio", overhead},
  });
  out.detail["traced_rows"] = traced_rows;
  out.detail["spans"] = to_d(tracer.span_count());
  return out;
}

}  // namespace ledger
