// serve_fresh and serve_hot: request traffic through the ShardRouter at the
// `sysrle serve` defaults (1 shard x 1 replica x 2 workers, queue cap 64,
// store 64 MiB, cache 16 MiB), driven by one generator thread.
//
// A run alternates three kinds of phase, four times over.  Open-loop phases
// send at a fixed rate whether or not earlier requests have completed; each
// interactive request is timed from the moment it was due to the moment its
// encoded response exists, so a stalled generator or a full queue shows up
// as latency.  Closed-loop phases keep a fixed number of requests outstanding
// and count completions per CPU-second of the process (the saturated
// throughput per core).  Model phases diff a fixed subset of the workload's
// pairs with the systolic machine's counters.
//
// The traced run replays the recorded request sequence on one thread
// through the same public calls the router makes (decode, route_key_of,
// acquire, lookup, image_diff, insert, encode) with a span around each,
// twice over two identical states, once traced and once not, so the
// tracer's overhead is measured on identical work.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"
#include "core/image_diff.hpp"
#include "core/systolic_diff.hpp"
#include "rle/serialize.hpp"
#include "service/shard_router.hpp"
#include "store/durable_store.hpp"
#include "store/result_cache.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace ledger {
namespace {

using sysrle::ImageHandle;
using sysrle::Priority;
using sysrle::RleImage;
using sysrle::ServiceRequest;
using sysrle::ServiceResponse;

constexpr sysrle::pos_t kRows = 64;
constexpr sysrle::pos_t kWidth = 4096;
constexpr double kBatchShare = 0.10;       ///< requests sent as batch
constexpr std::size_t kClosedOutstanding = 8;
constexpr std::size_t kModelPairs = 8;     ///< fixed set of the model pass
constexpr int kSetupRepeats = 7;
/// Each request's rows run on its worker thread: generator + 2 workers stay
/// within the host's 4 threads.  serve's own default (0) would fan every
/// request out over the shared row pool as well, so one request's latency
/// would wait on its slowest row chunk under host contention.
constexpr std::size_t kRequestThreads = 1;
constexpr std::size_t kStoreMiB = 64;      ///< serve --store-cap-mb default
constexpr std::size_t kCacheMiB = 16;      ///< serve --cache-cap-mb default

/// Share of the measured seconds per phase kind; the open and closed
/// phases are split into kAlternations parts each and alternate.
constexpr int kAlternations = 4;
constexpr double kOpenShare = 0.70;
constexpr double kClosedShare = 0.15;
constexpr double kModelShare = 0.15;

sysrle::RouterConfig serve_defaults(
    std::shared_ptr<sysrle::ImageStore> store,
    std::shared_ptr<sysrle::ResultCache> cache) {
  sysrle::RouterConfig cfg;
  cfg.shards = 1;
  cfg.replicas = 1;
  cfg.seed = 42;
  cfg.replica_service.workers = 2;
  cfg.replica_service.admission.interactive_capacity = 64;
  cfg.replica_service.admission.batch_capacity = 64;
  cfg.replica_service.seed = 42;
  cfg.hedge.enabled = false;  // serve: a single replica has nowhere to hedge
  cfg.store = std::move(store);
  cfg.cache = std::move(cache);
  return cfg;
}

RleImage make_scan(sysrle::Rng& rng, const RleImage& ref,
                   double error_fraction) {
  RleImage scan(ref.width(), ref.height());
  sysrle::ErrorGenParams ep;
  ep.error_fraction = error_fraction;
  for (sysrle::pos_t y = 0; y < ref.height(); ++y)
    scan.set_row(y, sysrle::inject_errors(rng, ref.row(y), ref.width(), ep));
  return scan;
}

RleImage make_reference(sysrle::Rng& rng) {
  sysrle::RowGenParams gp;
  gp.width = kWidth;
  return sysrle::generate_image(rng, kRows, gp);
}

/// One request as the generator saw it and the completion answered it.
struct Record {
  std::uint32_t a = 0;  ///< operand ids (workload-specific meaning)
  std::uint32_t b = 0;
  bool interactive = true;
  bool open_loop = true;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  double submit_us = 0.0;  ///< try_submit self time (sync delivery excluded)
  double queue_us = 0.0;
  double service_us = 0.0;
  std::uint64_t answer_fp = 0;
  bool encoded_ok = false;
  bool from_cache = false;
  std::uint64_t rows = 0;
  enum class State { kPending, kCompleted, kNotCompleted, kShed };
  State state = State::kPending;
};

/// The live half of a serve run: router, per-request records and the
/// bookkeeping the generator needs for open and closed loops.
class Live {
 public:
  explicit Live(const sysrle::RouterConfig& cfg)
      : generator_(std::this_thread::get_id()),
        router_(cfg,
                [this](ServiceResponse r) { on_response(std::move(r)); }) {}

  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  /// Submits `req` for record `rec`; returns false when it was shed.
  bool submit(ServiceRequest req, Record rec) {
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      id = records_.size();
      records_.push_back(rec);
      ++outstanding_;
    }
    req.id = id;
    nested_ns_ = 0;
    const auto t0 = Clock::now();
    const std::optional<sysrle::RejectReason> shed =
        router_.try_submit(std::move(req));
    const std::uint64_t total_ns = ns_between(t0, Clock::now());
    std::lock_guard<std::mutex> lk(mu_);
    Record& r = records_[id];
    r.submit_us =
        static_cast<double>(total_ns - std::min(total_ns, nested_ns_)) / 1e3;
    if (shed) {
      r.state = Record::State::kShed;
      --outstanding_;
      cv_.notify_all();
    }
    return !shed;
  }

  void wait_below(std::size_t n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return outstanding_ < n; });
  }
  void wait_idle() { wait_below(1); }

  sysrle::ShardRouter& router() { return router_; }
  /// Records; read only once the generator is idle (wait_idle()).
  const std::deque<Record>& records() const { return records_; }

 private:
  void on_response(ServiceResponse r) {
    const auto t0 = Clock::now();
    const bool completed = r.status == ServiceResponse::Status::kCompleted;
    std::string bytes;
    if (completed) bytes = encode(r.diff);
    const auto done = Clock::now();
    // Checks run after the latency stamp.
    const std::uint64_t fp =
        completed ? sysrle::canonical_fingerprint(r.diff) : 0;
    const bool encoded_ok =
        completed &&
        sysrle::fingerprint_bytes(bytes.data(), bytes.size()) == fp;
    if (std::this_thread::get_id() == generator_)
      nested_ns_ += ns_between(t0, done);
    std::lock_guard<std::mutex> lk(mu_);
    Record& rec = records_[r.id];
    rec.done = done;
    rec.queue_us = r.queue_us;
    rec.service_us = r.service_us;
    rec.answer_fp = fp;
    rec.encoded_ok = encoded_ok;
    rec.from_cache = r.from_cache;
    rec.rows = r.rows_processed;
    rec.state = completed ? Record::State::kCompleted
                          : Record::State::kNotCompleted;
    --outstanding_;
    cv_.notify_all();
  }

  const std::thread::id generator_;
  std::uint64_t nested_ns_ = 0;  ///< generator thread only
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Record> records_;  ///< guarded by mu_
  std::size_t outstanding_ = 0;  ///< guarded by mu_
  sysrle::ShardRouter router_;  ///< last: its workers call on_response
};

/// Issues one operation (a request or a registration) that was due at `due`.
using Issue = std::function<void(Clock::time_point due, bool open_loop)>;

/// Sends one operation every 1/rate seconds, whether or not earlier ones
/// have completed.
void open_phase(Live& live, double rate, double seconds, const Issue& issue) {
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const double at = static_cast<double>(i) / rate;
    if (at >= seconds) break;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(at));
    std::this_thread::sleep_until(due);
    issue(due, true);
  }
  live.wait_idle();
}

/// One closed-loop phase: when it issued, and the CPU time the whole
/// process spent from its start until its last request completed.
struct ClosedPhase {
  Clock::time_point begin;
  Clock::time_point end;
  double cpu_s = 0.0;
};

ClosedPhase closed_phase(Live& live, double seconds, const Issue& issue) {
  ClosedPhase p;
  const double cpu0 = process_cpu_s();
  p.begin = Clock::now();
  while (seconds_between(p.begin, Clock::now()) < seconds) {
    live.wait_below(kClosedOutstanding);
    issue(Clock::now(), false);
  }
  p.end = Clock::now();
  live.wait_idle();
  p.cpu_s = process_cpu_s() - cpu0;
  return p;
}

/// What the live phases produced, reduced to the ledger's numbers.
struct LiveSummary {
  std::vector<double> interactive_ms;  ///< open loop, completed
  double closed_rps = 0.0;  ///< completions per CPU-second, closed loop
  double queue_us = 0.0;   ///< open-loop means over engine-run requests
  double engine_us = 0.0;
  double submit_us = 0.0;
  double send_lag_p99_ms = 0.0;
  std::uint64_t requests = 0;
};

/// Summarises the records; `oracle(a, b)` gives the expected fingerprint.
template <typename Oracle>
LiveSummary summarize(const std::deque<Record>& records, Oracle&& oracle,
                      Outcome& out, const std::vector<ClosedPhase>& closed) {
  LiveSummary s;
  std::vector<double> lag_ms;
  double q = 0.0;
  double e = 0.0;
  double sub = 0.0;
  std::uint64_t engine_n = 0;
  std::uint64_t open_n = 0;
  for (const Record& r : records) {
    ++s.requests;
    if (r.state != Record::State::kCompleted) {
      out.fail_check(r.state == Record::State::kShed ? "request shed"
                                                     : "request not completed");
      continue;
    }
    if (r.answer_fp != oracle(r.a, r.b)) {
      out.fail_check("answer differs from bitmap XOR");
      continue;
    }
    if (!r.encoded_ok || r.rows != static_cast<std::uint64_t>(kRows)) {
      out.fail_check("encoded response does not match the answer");
      continue;
    }
    if (!r.open_loop) continue;
    ++open_n;
    sub += r.submit_us;
    lag_ms.push_back(seconds_between(r.due, r.sent) * 1e3);
    if (r.interactive)
      s.interactive_ms.push_back(seconds_between(r.due, r.done) * 1e3);
    if (!r.from_cache) {
      q += r.queue_us;
      e += r.service_us;
      ++engine_n;
    }
  }
  // Saturated throughput per CPU-second: the host's delivered parallel
  // capacity swings between about 1x and 4x from run to run (see the host
  // block), so completions per wall second would measure the host.  The
  // median over the phases keeps one disturbed phase from moving it.
  std::vector<double> phase_rate;
  for (const ClosedPhase& p : closed) {
    double done = 0.0;
    for (const Record& r : records)
      if (!r.open_loop && r.state == Record::State::kCompleted &&
          r.sent >= p.begin && r.sent <= p.end)
        done += 1.0;
    if (p.cpu_s > 0) phase_rate.push_back(done / p.cpu_s);
  }
  s.closed_rps = median(phase_rate);
  if (engine_n) {
    s.queue_us = q / to_d(engine_n);
    s.engine_us = e / to_d(engine_n);
  }
  if (open_n) s.submit_us = sub / to_d(open_n);
  s.send_lag_p99_ms = quantile(lag_ms, 0.99);
  return s;
}

/// The model pass: image_diff with systolic counters over a fixed list of
/// pairs, run in slices between the live phases; checks counters against
/// the reference machine and answers against the oracle.
class ModelPass {
 public:
  ModelPass(std::vector<std::pair<const RleImage*, const RleImage*>> pairs,
            std::vector<std::uint64_t> oracles)
      : pairs_(std::move(pairs)),
        oracles_(std::move(oracles)),
        reference_(pairs_.size()) {
    sysrle::SystolicDiffMachine machine;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const RleImage& a = *pairs_[i].first;
      const RleImage& b = *pairs_[i].second;
      for (sysrle::pos_t y = 0; y < a.height(); ++y) {
        machine.load(a.row(y), b.row(y), {});
        machine.run();
        reference_[i] += machine.counters();
      }
      fixed_ += reference_[i];
    }
    opts_.engine = sysrle::DiffEngine::kSystolic;
    opts_.threads = 1;
  }

  /// Diffs pairs for `seconds`, and at least one whole pass of the list.
  void run_for(double seconds, Outcome& out) {
    const auto start = Clock::now();
    for (std::size_t i = 0;
         i < pairs_.size() || seconds_between(start, Clock::now()) < seconds;
         ++i) {
      const std::size_t k = next_++ % pairs_.size();
      const double c0 = process_cpu_s();
      const auto t0 = Clock::now();
      const sysrle::ImageDiffResult r =
          sysrle::image_diff(*pairs_[k].first, *pairs_[k].second, opts_);
      busy_s_ += seconds_between(t0, Clock::now());
      busy_cpu_s_ += process_cpu_s() - c0;
      rows_ += static_cast<double>(pairs_[k].first->height());
      iterations_ += r.counters.iterations;
      ++out.attempted;
      if (!same_counters(r.counters, reference_[k]))
        out.fail_check("model: counters differ from SystolicDiffMachine");
      if (sysrle::canonical_fingerprint(r.diff) != oracles_[k])
        out.fail_check("model: answer differs from bitmap XOR");
    }
  }

  /// Rows per CPU-second: the router is idle while the model pass runs.
  double rows_per_cpu_s() const { return rows_ / busy_cpu_s_; }
  double row_us() const { return busy_s_ * 1e6 / rows_; }
  double ns_per_iteration() const { return busy_s_ * 1e9 / to_d(iterations_); }
  /// Counters of one pass over the fixed list.
  const sysrle::SystolicCounters& fixed() const { return fixed_; }

 private:
  std::vector<std::pair<const RleImage*, const RleImage*>> pairs_;
  std::vector<std::uint64_t> oracles_;
  std::vector<sysrle::SystolicCounters> reference_;
  sysrle::SystolicCounters fixed_;
  sysrle::ImageDiffOptions opts_;
  std::size_t next_ = 0;
  double busy_s_ = 0.0;
  double busy_cpu_s_ = 0.0;
  double rows_ = 0.0;
  std::uint64_t iterations_ = 0;
};

/// Runs the alternating open, closed and model phases; returns the closed
/// phases.
std::vector<ClosedPhase> run_phases(Live& live, ModelPass& model, double rate,
                                    double seconds, const Issue& issue,
                                    Outcome& out) {
  std::vector<ClosedPhase> closed;
  for (int k = 0; k < kAlternations; ++k) {
    open_phase(live, rate, seconds * kOpenShare / kAlternations, issue);
    closed.push_back(
        closed_phase(live, seconds * kClosedShare / kAlternations, issue));
    model.run_for(seconds * kModelShare / kAlternations, out);
  }
  return closed;
}

void check_router(const sysrle::ShardRouter& router, Outcome& out) {
  if (!router.stats().accounted())
    out.fail_check("RouterStats::accounted() failed");
}

std::map<std::string, double> live_layers(const sysrle::ShardRouter& router,
                                          const LiveSummary& s) {
  const sysrle::RouterStats rt = router.stats();
  const sysrle::ServiceStats st = router.backend_stats();
  return {
      {"router.coalesced", to_d(rt.coalesced)},
      {"router.cache_hits", to_d(rt.cache_hits)},
      {"service.engine_invocations", to_d(st.engine_invocations)},
      {"service.queue_us", s.queue_us},
      {"service.engine_us", s.engine_us},
      {"service.submit_us", s.submit_us},
      {"service.shed", to_d(rt.shed_submit_total() + rt.rejected + rt.failed)},
      {"bench.send_lag_ms", s.send_lag_p99_ms},
  };
}

void add_end_to_end(Outcome& out, const LiveSummary& s, const ModelPass& m,
                    const std::vector<double>& setup_s) {
  out.add("p50_ms", quantile(s.interactive_ms, 0.50), "ms");
  out.add("requests_per_cpu_s", s.closed_rps, "1/cpu_s");
  out.add("diff_rows_per_cpu_s", s.closed_rps * static_cast<double>(kRows),
          "1/cpu_s");
  out.add("model_rows_per_cpu_s", m.rows_per_cpu_s(), "1/cpu_s");
  out.add("model_iterations", to_d(m.fixed().iterations), "count");
  out.add("success_ratio", success_ratio(out), "ratio");
  out.add("setup_s", median(setup_s), "s");
  out.detail["interactive_samples"] =
      static_cast<double>(s.interactive_ms.size());
  out.detail["p90_ms"] = quantile(s.interactive_ms, 0.90);
  out.detail["p95_ms"] = quantile(s.interactive_ms, 0.95);
  out.detail["p99_ms"] = quantile(s.interactive_ms, 0.99);
  out.detail["requests"] = to_d(s.requests);
}

void add_model_layers(std::map<std::string, double>& layers,
                      const ModelPass& m) {
  layers["core.model_row_us"] = m.row_us();
  layers["systolic.ns_per_iteration"] = m.ns_per_iteration();
  layers["systolic.iterations"] = to_d(m.fixed().iterations);
  layers["systolic.swaps"] = to_d(m.fixed().swaps);
  layers["systolic.promotions"] = to_d(m.fixed().promotions);
  layers["systolic.shifts"] = to_d(m.fixed().shifts);
}

sysrle::ImageDiffOptions replay_options() {
  sysrle::ImageDiffOptions o;
  o.threads = 1;  // the replay is single-threaded by design
  return o;
}

/// Per-layer self times of the traced replay, plus its overhead ratio.
void add_replay_layers(std::map<std::string, double>& layers,
                       const Tracer& tracer, double rows, double traced_s,
                       double untraced_s) {
  const auto self = tracer.self_times();
  for (const char* layer :
       {"rle.decode", "rle.fingerprint", "service.route_key", "store.acquire",
        "cache.lookup", "cache.insert", "store.register", "rle.encode"}) {
    const double us = self_us_per_span(self, layer);
    if (us > 0) layers[std::string(layer) + "_us"] = us;
  }
  const auto it = self.find("core.answer");
  if (it != self.end() && rows > 0)
    layers["core.answer_row_us"] = to_d(it->second.self_ns) / 1e3 / rows;
  layers["trace.overhead_ratio"] = untraced_s > 0 ? traced_s / untraced_s : 0.0;
}

// ------------------------------------------------------------ serve_fresh

/// Rate of the open-loop phases (requests per second, all classes).
constexpr double kFreshRate = 60.0;
constexpr std::size_t kFreshPairs = 96;

struct FreshPair {
  std::string ref_bytes;
  std::string scan_bytes;
  std::uint64_t oracle = 0;
};

std::vector<FreshPair> make_fresh_pairs(std::uint64_t seed) {
  sysrle::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<FreshPair> pairs(kFreshPairs);
  for (FreshPair& p : pairs) {
    const RleImage ref = make_reference(rng);
    const RleImage scan = make_scan(rng, ref, 0.02);
    p.ref_bytes = encode(ref);
    p.scan_bytes = encode(scan);
    p.oracle = oracle_fingerprint(ref, scan);
  }
  return pairs;
}

ServiceRequest fresh_request(const FreshPair& p, bool interactive) {
  ServiceRequest req;
  req.priority = interactive ? Priority::kInteractive : Priority::kBatch;
  req.reference = decode(p.ref_bytes);
  req.scan = decode(p.scan_bytes);
  req.options.threads = kRequestThreads;
  req.keep_diff = true;
  return req;
}

}  // namespace

Outcome run_serve_fresh(const RunArgs& args) {
  Outcome out;
  const std::vector<FreshPair> pairs = make_fresh_pairs(args.seed);
  const double live_s = args.trace ? args.seconds / 2 : args.seconds;

  // Set-up: router construction plus one request served cold, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  for (int r = 0; r < kSetupRepeats; ++r) {
    live.reset();
    const auto t0 = Clock::now();
    live = std::make_unique<Live>(serve_defaults(nullptr, nullptr));
    Record warm;
    warm.open_loop = false;
    live->submit(fresh_request(pairs[0], true), warm);
    live->wait_idle();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  // The warm-up request is checked with the rest; it is not a closed-loop
  // completion because it falls outside every closed window.

  std::vector<RleImage> model_imgs;
  std::vector<std::pair<const RleImage*, const RleImage*>> model_list;
  std::vector<std::uint64_t> model_oracles;
  for (std::size_t i = 0; i < kModelPairs; ++i) {
    model_imgs.push_back(decode(pairs[i].ref_bytes));
    model_imgs.push_back(decode(pairs[i].scan_bytes));
    model_oracles.push_back(pairs[i].oracle);
  }
  for (std::size_t i = 0; i < kModelPairs; ++i)
    model_list.emplace_back(&model_imgs[2 * i], &model_imgs[2 * i + 1]);
  ModelPass m(model_list, model_oracles);

  sysrle::Rng req_rng(args.seed * 0x9e3779b97f4a7c15ull + 13);
  std::vector<std::uint32_t> sequence;  // pair per request, for the replay
  const Issue issue = [&](Clock::time_point due, bool open_loop) {
    Record rec;
    rec.a = static_cast<std::uint32_t>(req_rng.uniform(0, kFreshPairs - 1));
    rec.interactive = !req_rng.bernoulli(kBatchShare);
    rec.open_loop = open_loop;
    rec.due = due;
    rec.sent = Clock::now();
    sequence.push_back(rec.a);
    live->submit(fresh_request(pairs[rec.a], rec.interactive), rec);
  };
  const auto closed = run_phases(*live, m, kFreshRate, live_s, issue, out);
  live->router().drain();
  check_router(live->router(), out);
  const LiveSummary s = summarize(
      live->records(),
      [&](std::uint32_t a, std::uint32_t) { return pairs[a].oracle; }, out,
      closed);
  out.attempted += s.requests;

  out.detail["rate_rps"] = kFreshRate;

  if (!args.trace) {
    add_end_to_end(out, s, m, setup_s);
    return out;
  }

  // Traced replay of the live sequence, each request twice (traced and
  // untraced, alternating which goes first).
  std::map<std::string, double> layers = live_layers(live->router(), s);
  add_model_layers(layers, m);
  Tracer tracer(true);
  Tracer untraced(false);
  double pass_s[2] = {0.0, 0.0};
  double rows = 0.0;
  const sysrle::ImageDiffOptions opts = replay_options();
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < sequence.size() &&
       seconds_between(start, Clock::now()) < args.seconds / 2;
       ++i) {
    const FreshPair& p = pairs[sequence[i]];
    std::uint64_t keys[2] = {0, 0};  // per leg: route key ^ fingerprints
    for (int leg = 0; leg < 2; ++leg) {
      const int on = (leg == 0) == (i % 2 == 0) ? 1 : 0;
      Tracer& t = on ? tracer : untraced;
      std::string bytes;
      const auto t0 = Clock::now();
      {
        auto req_span = t.span("bench.request", i);
        ServiceRequest req;
        {
          auto sp = t.span("rle.decode", i);
          req.reference = decode(p.ref_bytes);
          req.scan = decode(p.scan_bytes);
        }
        std::uint64_t fps = 0;
        {
          auto sp = t.span("rle.fingerprint", i);
          fps = sysrle::canonical_fingerprint(req.reference) ^
                sysrle::canonical_fingerprint(req.scan);
        }
        std::uint64_t key = 0;
        {
          auto sp = t.span("service.route_key", i);
          key = sysrle::ShardRouter::route_key_of(req);
        }
        sysrle::ImageDiffResult r;
        {
          auto sp = t.span("core.answer", i);
          r = sysrle::image_diff(req.reference, req.scan, opts);
        }
        {
          auto sp = t.span("rle.encode", i);
          bytes = encode(r.diff);
        }
        keys[leg] = key ^ fps;
      }
      pass_s[on] += seconds_between(t0, Clock::now());
      if (on) rows += static_cast<double>(kRows);
      ++out.attempted;
      if (sysrle::fingerprint_bytes(bytes.data(), bytes.size()) != p.oracle)
        out.fail_check("replay: answer differs from bitmap XOR");
    }
    if (keys[0] != keys[1])
      out.fail_check("replay: keys differ between identical requests");
  }
  add_replay_layers(layers, tracer, rows, pass_s[1], pass_s[0]);
  add_layer_metrics(out, layers);
  out.detail["replayed_requests"] = rows / static_cast<double>(kRows);
  return out;
}

// -------------------------------------------------------------- serve_hot
//
// The golden-panel pattern: one hot reference and scans derived from it
// with 1-3 % injected errors, all submitted by handle through a durable
// store and the result cache.  About three diffs in four repeat one of the
// 64 pairs served most recently; the rest pair the reference with an
// unserved scan (or, once none is left, two scans).  Set-up recovers a
// store directory pre-populated with the reference and 96 scans.

namespace {

constexpr double kHotRate = 160.0;
/// Share of open-loop operations that register a new scan.  Closed-loop
/// phases measure read throughput and register nothing, which keeps the
/// store inside its 64 MiB budget however fast the reads run.
constexpr double kRegisterShare = 0.10;
constexpr double kRepeatShare = 0.75;    ///< diffs that repeat a served pair
/// Repeats pick among the most recently served pairs, a working set that
/// fits the 16 MiB result cache many times over.
constexpr std::size_t kHotSet = 64;
constexpr std::size_t kRecoveredScans = 96;  ///< in the store before set-up

/// One operation of the hot workload, recorded for the replay.
struct HotOp {
  bool is_register = false;
  std::uint32_t a = 0;  ///< image ids; for a registration, a is the new id
  std::uint32_t b = 0;
};

/// Images of the hot workload by id: 0 is the golden reference, then the
/// recovered scans, then the scans registered during the run.
struct HotImages {
  std::vector<RleImage> images;
  std::vector<ImageHandle> handles;
  std::vector<std::string> fresh_bytes;  ///< SRLB of ids past the recovered
  std::size_t recovered = 0;             ///< ids [0, recovered) are on disk

  std::string label(std::size_t id) const {
    return id == 0 ? "ref" : "scan" + std::to_string(id);
  }
};

/// `fresh` scans are made for registration during the run.
HotImages make_hot_images(std::uint64_t seed, std::size_t fresh) {
  sysrle::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  HotImages h;
  h.images.push_back(make_reference(rng));
  for (std::size_t i = 0; i < kRecoveredScans + fresh; ++i)
    // Error shares step evenly through 1-3 % so any 8 consecutive scans
    // (the model pass's fixed set) span the whole range.
    h.images.push_back(make_scan(
        rng, h.images[0], 0.01 + 0.02 * static_cast<double>(i % 8) / 7.0));
  for (const RleImage& img : h.images)
    h.handles.push_back(sysrle::canonical_fingerprint(img));
  h.recovered = 1 + kRecoveredScans;
  for (std::size_t i = h.recovered; i < h.images.size(); ++i)
    h.fresh_bytes.push_back(encode(h.images[i]));
  return h;
}

sysrle::DurableStoreConfig hot_store_config(const std::string& dir) {
  sysrle::DurableStoreConfig dc;
  dc.dir = dir;
  dc.store.capacity_bytes = kStoreMiB << 20;
  dc.journal_fsync_every = 1;  // serve --store-dir: one fsync per record
  // No periodic snapshot: a multi-megabyte snapshot write inside the
  // measured window would sit exactly at p99.  Recovery still compacts.
  dc.snapshot_every = 0;
  return dc;
}

void copy_dir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

/// The op generator of the hot workload: registrations, repeats of served
/// pairs, and new pairs (reference vs an unserved scan, or two scans).
class HotMix {
 public:
  HotMix(std::uint64_t seed, std::size_t recovered)
      : rng_(seed * 0x9e3779b97f4a7c15ull + 19) {
    for (std::size_t id = 1; id < recovered; ++id)
      unserved_.push_back(static_cast<std::uint32_t>(id));
    next_fresh_ = static_cast<std::uint32_t>(recovered);
    known_ = next_fresh_;
  }

  /// Marks (0, 1) served: the set-up's warm request.
  void mark_served(std::uint32_t a, std::uint32_t b) {
    if (served_set_.insert({a, b}).second) {
      served_.emplace_back(a, b);
      if (served_.size() > kHotSet) served_.pop_front();
    }
    unserved_.erase(std::remove(unserved_.begin(), unserved_.end(), b),
                    unserved_.end());
  }

  /// The next operation; registrations only when `writes` (open loop).
  /// Diffs name only images `resident` accepts: on a long run the store's
  /// LRU evicts the oldest scans, and nobody asks for an evicted scan.
  HotOp next(std::size_t total_ids, bool writes,
             const std::function<bool(std::uint32_t)>& resident) {
    HotOp op;
    if (writes && rng_.bernoulli(kRegisterShare)) {
      if (next_fresh_ >= total_ids)
        throw std::runtime_error("serve_hot: fresh scans exhausted");
      op.is_register = true;
      op.a = next_fresh_++;
      known_ = next_fresh_;
      unserved_.push_back(op.a);
      return op;
    }
    if (!served_.empty() && rng_.bernoulli(kRepeatShare)) {
      const auto& p = served_[static_cast<std::size_t>(
          rng_.uniform(0, static_cast<std::int64_t>(served_.size()) - 1))];
      if (resident(p.first) && resident(p.second)) {
        op.a = p.first;
        op.b = p.second;
        ++repeats_;
        return op;
      }
    }
    while (!unserved_.empty() && !resident(unserved_.front()))
      unserved_.pop_front();
    if (!unserved_.empty()) {
      op.a = 0;
      op.b = unserved_.front();
      unserved_.pop_front();
    } else {
      for (int tries = 0;; ++tries) {
        op.a = static_cast<std::uint32_t>(rng_.uniform(1, known_ - 1));
        op.b = static_cast<std::uint32_t>(rng_.uniform(1, known_ - 1));
        if (op.a == op.b || !resident(op.a) || !resident(op.b)) continue;
        if (!served_set_.count({op.a, op.b}) || tries >= 16) break;
      }
    }
    mark_served(op.a, op.b);
    ++new_pairs_;
    return op;
  }

  std::uint64_t repeats() const { return repeats_; }
  std::uint64_t new_pairs() const { return new_pairs_; }

 private:
  sysrle::Rng rng_;
  std::deque<std::uint32_t> unserved_;
  std::deque<std::pair<std::uint32_t, std::uint32_t>> served_;  ///< the hot set
  std::set<std::pair<std::uint32_t, std::uint32_t>> served_set_;
  std::uint32_t next_fresh_ = 0;
  std::int64_t known_ = 0;
  std::uint64_t repeats_ = 0;
  std::uint64_t new_pairs_ = 0;
};

ServiceRequest hot_request(const HotImages& h, std::uint32_t a, std::uint32_t b,
                           bool interactive) {
  ServiceRequest req;
  req.priority = interactive ? Priority::kInteractive : Priority::kBatch;
  req.ref_handle = h.handles[a];
  req.scan_handle = h.handles[b];
  req.options.threads = kRequestThreads;
  req.keep_diff = true;
  return req;
}

/// One replica of the replay state: a recovered store and an empty cache.
struct ReplayState {
  std::unique_ptr<sysrle::DurableStore> durable;
  sysrle::ResultCache cache{sysrle::CacheConfig{kCacheMiB << 20}};
};

}  // namespace

Outcome run_serve_hot(const RunArgs& args) {
  namespace fs = std::filesystem;
  Outcome out;
  const double live_s = args.trace ? args.seconds / 2 : args.seconds;
  // Enough scans for the expected registrations plus 30 % and a floor.
  const auto fresh = static_cast<std::size_t>(
      kRegisterShare * kHotRate * live_s * kOpenShare * 1.3 + 32);
  const HotImages h = make_hot_images(args.seed, fresh);
  const std::string tmpl = args.work_dir + "/hot-template";
  fs::remove_all(tmpl);
  fs::create_directories(tmpl);
  {
    sysrle::DurableStore seed_store(hot_store_config(tmpl));
    for (std::size_t id = 0; id < h.recovered; ++id)
      if (!seed_store.register_image(h.images[id], h.label(id)).ok)
        throw std::runtime_error("template store refused an image");
  }

  // Set-up: recovery of the pre-populated store, cache and router
  // construction, and one cold request; repeated on fresh copies.
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  std::unique_ptr<Live> live;
  std::unique_ptr<sysrle::DurableStore> durable;
  std::shared_ptr<sysrle::ResultCache> cache;
  for (int r = 0; r < kSetupRepeats; ++r) {
    live.reset();
    cache.reset();
    durable.reset();
    const std::string dir = args.work_dir + "/hot-live";
    copy_dir(tmpl, dir);
    const auto t0 = Clock::now();
    durable = std::make_unique<sysrle::DurableStore>(hot_store_config(dir));
    recovery_s.push_back(seconds_between(t0, Clock::now()));
    cache = std::make_shared<sysrle::ResultCache>(
        sysrle::CacheConfig{kCacheMiB << 20});
    live = std::make_unique<Live>(serve_defaults(durable->store_ptr(), cache));
    Record warm;
    warm.a = 0;
    warm.b = 1;
    warm.open_loop = false;
    live->submit(hot_request(h, 0, 1, true), warm);
    live->wait_idle();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (durable->recovery().replayed_registers != h.recovered)
      out.fail_check("recovery did not restore every pre-populated image");
  }
  std::vector<std::pair<const RleImage*, const RleImage*>> model_list;
  std::vector<std::uint64_t> model_oracles;
  for (std::uint32_t i = 1; i <= kModelPairs; ++i) {
    model_list.emplace_back(&h.images[0], &h.images[i]);
    model_oracles.push_back(oracle_fingerprint(h.images[0], h.images[i]));
  }
  ModelPass m(model_list, model_oracles);

  HotMix mix(args.seed, h.recovered);
  mix.mark_served(0, 1);
  sysrle::Rng prio_rng(args.seed * 0x9e3779b97f4a7c15ull + 23);
  std::vector<HotOp> ops;
  std::uint64_t registrations = 0;
  const std::uint64_t journal_before =
      durable->durability_stats().journal.appends;
  const Issue issue = [&](Clock::time_point due, bool open_loop) {
    const HotOp op =
        mix.next(h.images.size(), open_loop, [&](std::uint32_t id) {
          return durable->store().contains(h.handles[id]);
        });
    ops.push_back(op);
    if (op.is_register) {
      ++registrations;
      ++out.attempted;
      const RleImage img = decode(h.fresh_bytes[op.a - h.recovered]);
      const auto rr = durable->register_image(img, h.label(op.a));
      if (!rr.ok || rr.handle != h.handles[op.a])
        out.fail_check("registration refused");
      return;
    }
    Record rec;
    rec.a = op.a;
    rec.b = op.b;
    rec.interactive = !prio_rng.bernoulli(kBatchShare);
    rec.open_loop = open_loop;
    rec.due = due;
    rec.sent = Clock::now();
    live->submit(hot_request(h, op.a, op.b, rec.interactive), rec);
  };
  const auto closed = run_phases(*live, m, kHotRate, live_s, issue, out);
  live->router().drain();
  check_router(live->router(), out);

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> oracles;
  double oracle_s = 0.0;
  double oracle_rows = 0.0;
  auto oracle = [&](std::uint32_t a, std::uint32_t b) {
    auto it = oracles.find({a, b});
    if (it == oracles.end()) {
      const auto t0 = Clock::now();
      const std::uint64_t fp = oracle_fingerprint(h.images[a], h.images[b]);
      oracle_s += seconds_between(t0, Clock::now());
      oracle_rows += static_cast<double>(kRows);
      it = oracles.emplace(std::make_pair(a, b), fp).first;
    }
    return it->second;
  };
  const LiveSummary s = summarize(live->records(), oracle, out, closed);
  out.attempted += s.requests;

  const sysrle::StoreStats ss = durable->store().stats();
  const sysrle::CacheStats cs = cache->stats();
  if (!cs.accounted()) out.fail_check("CacheStats::accounted() failed");
  if (!ss.accounted()) out.fail_check("StoreStats::accounted() failed");
  const sysrle::DurabilityStats ds = durable->durability_stats();
  {
    const sysrle::RecoveryReport& rec = ds.recovery;
    const std::uint64_t evict_records =
        rec.replayed_evicts + rec.evicts_unmatched;
    const std::uint64_t register_records =
        rec.snapshot_entries + rec.journal_records - evict_records;
    if (rec.replayed_registers + rec.dropped() != register_records)
      out.fail_check("durability identity failed");
    if (ds.journal.appends - journal_before != registrations + ss.evicted)
      out.fail_check("journal appends differ from registrations + evictions");
    if (ds.journal.fsyncs < ds.journal.appends)
      out.fail_check("journal skipped an fsync");
  }
  out.detail["registrations"] = to_d(registrations);
  out.detail["repeat_diffs"] = to_d(mix.repeats());
  out.detail["new_pair_diffs"] = to_d(mix.new_pairs());
  out.detail["rate_rps"] = kHotRate;

  if (!args.trace) {
    add_end_to_end(out, s, m, setup_s);
    return out;
  }

  std::map<std::string, double> layers = live_layers(live->router(), s);
  add_model_layers(layers, m);
  layers["store.recovery_s"] = median(recovery_s);
  layers["store.journal_fsyncs"] = to_d(ds.journal.fsyncs);
  layers["store.lookup_misses"] = to_d(ss.lookup_misses);
  if (oracle_rows > 0)
    layers["baseline.oracle_row_us"] = oracle_s * 1e6 / oracle_rows;

  // Traced replay over two identical recovered states.
  ReplayState state[2];
  for (int k = 0; k < 2; ++k) {
    const std::string dir = args.work_dir + "/hot-replay" + std::to_string(k);
    copy_dir(tmpl, dir);
    state[k].durable =
        std::make_unique<sysrle::DurableStore>(hot_store_config(dir));
  }
  Tracer tracer(true);
  Tracer untraced(false);
  double pass_s[2] = {0.0, 0.0};
  double rows = 0.0;
  const sysrle::ImageDiffOptions opts = replay_options();
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < ops.size() &&
       seconds_between(start, Clock::now()) < args.seconds / 2;
       ++i) {
    const HotOp& op = ops[i];
    for (int leg = 0; leg < 2; ++leg) {
      const int on = (leg == 0) == (i % 2 == 0) ? 1 : 0;
      Tracer& t = on ? tracer : untraced;
      ReplayState& st = state[on];
      std::string bytes;
      bool ok = true;
      const auto t0 = Clock::now();
      {
        auto req_span = t.span("bench.request", i);
        if (op.is_register) {
          RleImage img{0, 0};
          {
            auto sp = t.span("rle.decode", i);
            img = decode(h.fresh_bytes[op.a - h.recovered]);
          }
          std::uint64_t fp = 0;
          {
            auto sp = t.span("rle.fingerprint", i);
            fp = sysrle::canonical_fingerprint(img);
          }
          sysrle::ImageStore::RegisterResult rr;
          {
            auto sp = t.span("store.register", i);
            rr = st.durable->register_image(img, h.label(op.a));
          }
          ok = rr.ok && rr.handle == fp && fp == h.handles[op.a];
        } else {
          ServiceRequest req = hot_request(h, op.a, op.b, true);
          std::uint64_t key = 0;
          {
            auto sp = t.span("service.route_key", i);
            key = sysrle::ShardRouter::route_key_of(req);
          }
          sysrle::PinnedImage pa;
          sysrle::PinnedImage pb;
          {
            auto sp = t.span("store.acquire", i);
            pa = st.durable->store().acquire(req.ref_handle);
            pb = st.durable->store().acquire(req.scan_handle);
          }
          if (!pa || !pb || key == 0) {
            ok = false;
          } else {
            sysrle::ResultKey rkey;
            rkey.fp_a = req.ref_handle;
            rkey.fp_b = req.scan_handle;
            rkey.engine = opts.engine;
            rkey.canonicalize = opts.canonicalize_output;
            std::shared_ptr<const sysrle::CachedDiff> hit;
            {
              auto sp = t.span("cache.lookup", i);
              hit = st.cache.lookup(rkey, pa.image(), pb.image());
            }
            if (!hit) {
              sysrle::ImageDiffResult r;
              {
                auto sp = t.span("core.answer", i);
                r = sysrle::image_diff(pa.image(), pb.image(), opts);
              }
              if (on) rows += static_cast<double>(kRows);
              sysrle::CachedDiff cd;
              cd.diff = std::move(r.diff);
              cd.rows_processed = static_cast<std::uint64_t>(kRows);
              auto shared =
                  std::make_shared<const sysrle::CachedDiff>(std::move(cd));
              {
                auto sp = t.span("cache.insert", i);
                st.cache.insert(rkey, pa.share(), pb.share(), *shared);
              }
              hit = shared;
            }
            {
              auto sp = t.span("rle.encode", i);
              bytes = encode(hit->diff);
            }
          }
        }
      }
      pass_s[on] += seconds_between(t0, Clock::now());
      ++out.attempted;
      if (!ok) {
        out.fail_check("replay: operation failed");
      } else if (!op.is_register &&
                 sysrle::fingerprint_bytes(bytes.data(), bytes.size()) !=
                     oracle(op.a, op.b)) {
        out.fail_check("replay: answer differs from bitmap XOR");
      }
    }
  }
  for (const ReplayState& st : state) {
    if (!st.cache.stats().accounted())
      out.fail_check("CacheStats::accounted() failed (replay)");
    if (!st.durable->store().stats().accounted())
      out.fail_check("StoreStats::accounted() failed (replay)");
  }
  layers["cache.hit_ratio"] =
      cs.lookups ? to_d(cs.hits) / to_d(cs.lookups) : 0.0;
  layers["cache.collisions"] = to_d(cs.collisions);
  add_replay_layers(layers, tracer, rows, pass_s[1], pass_s[0]);
  add_layer_metrics(out, layers);
  out.detail["replayed_ops"] = to_d(tracer.span_count());
  return out;
}

}  // namespace ledger
