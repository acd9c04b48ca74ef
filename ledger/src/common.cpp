#include "common.hpp"

#include <ctime>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "bitmap/bit_ops.hpp"
#include "bitmap/convert.hpp"
#include "rle/serialize.hpp"

namespace ledger {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

sysrle::RleImage decode(const std::string& bytes) {
  ByteSource source(bytes);
  std::istream in(&source);
  return sysrle::read_rle(in);
}

std::string encode(const sysrle::RleImage& image) {
  std::ostringstream out;
  sysrle::write_rle(out, image);
  return std::move(out).str();
}

bool same_counters(const sysrle::SystolicCounters& x,
                   const sysrle::SystolicCounters& y) {
  return x.iterations == y.iterations && x.swaps == y.swaps &&
         x.promotions == y.promotions && x.xors == y.xors &&
         x.shifts == y.shifts && x.cells_used == y.cells_used;
}

std::uint64_t oracle_fingerprint(const sysrle::RleImage& a,
                                 const sysrle::RleImage& b) {
  sysrle::RleImage x(a.width(), a.height());
  for (sysrle::pos_t y = 0; y < a.height(); ++y)
    x.set_row(y, sysrle::bitrow_to_rle(sysrle::xor_bitrows(
                     sysrle::rle_to_bitrow(a.row(y), a.width()),
                     sysrle::rle_to_bitrow(b.row(y), b.width()))));
  return sysrle::canonical_fingerprint(x);
}

std::map<std::string, Tracer::LayerTotals> Tracer::self_times() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent) child_ns[s.parent] += ns_between(s.start, s.end);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = ns_between(spans_[i].start, spans_[i].end);
    LayerTotals& t = out[spans_[i].layer];
    t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    ++t.spans;
  }
  return out;
}

double self_us_per_span(const std::map<std::string, Tracer::LayerTotals>& t,
                        const std::string& layer) {
  const auto it = t.find(layer);
  if (it == t.end() || it->second.spans == 0) return 0.0;
  return static_cast<double>(it->second.self_ns) / 1000.0 /
         static_cast<double>(it->second.spans);
}

void add_layer_metrics(Outcome& out,
                       const std::map<std::string, double>& values) {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"core.model_row_us", "us"},        {"systolic.ns_per_iteration", "ns"},
      {"systolic.iterations", "count"},   {"systolic.swaps", "count"},
      {"systolic.promotions", "count"},   {"systolic.shifts", "count"},
      {"core.answer_row_us", "us"},       {"baseline.engine_row_us", "us"},
      {"baseline.oracle_row_us", "us"},   {"rle.decode_us", "us"},
      {"rle.fingerprint_us", "us"},       {"service.route_key_us", "us"},
      {"store.acquire_us", "us"},         {"cache.lookup_us", "us"},
      {"cache.insert_us", "us"},          {"cache.hit_ratio", "ratio"},
      {"router.coalesced", "count"},      {"router.cache_hits", "count"},
      {"service.engine_invocations", "count"}, {"store.register_us", "us"},
      {"store.journal_fsyncs", "count"},  {"store.recovery_s", "s"},
      {"service.queue_us", "us"},         {"service.engine_us", "us"},
      {"service.submit_us", "us"},        {"rle.encode_us", "us"},
      {"store.lookup_misses", "count"},   {"cache.collisions", "count"},
      {"service.shed", "count"},          {"bench.send_lag_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& layer : kLayers) known = known || layer.first == name;
    if (!known) throw std::logic_error("not a ledger layer metric: " + name);
  }
  for (const auto& [name, unit] : kLayers) {
    const auto it = values.find(name);
    out.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace ledger
