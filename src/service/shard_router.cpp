#include "service/shard_router.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "rle/serialize.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

namespace {

/// Router-level (unrouted) flight context for a client request: events at
/// admission/response granularity, before/after any shard placement.
RequestContext client_ctx(std::uint64_t request_id) {
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = request_id;
  return ctx;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// An engine override changes behaviour per request, so a hooked request
/// neither shares a computation nor touches the cache.
bool hooked(const ServiceRequest& request) {
  return static_cast<bool>(request.engine_override);
}

/// True when `x` and `y` diff the same operands.  By-handle operands share
/// the store's parse, so the address test usually decides it in O(1).
bool same_operands(const ServiceRequest& x, const ServiceRequest& y) {
  const auto same = [](const RleImage& p, const RleImage& q) {
    return &p == &q || p == q;
  };
  return same(x.ref_image(), y.ref_image()) &&
         same(x.scan_image(), y.scan_image());
}

/// Pops the earliest entry of a min-heap on fire_at.
struct HedgeEarlier {
  bool operator()(const auto& a, const auto& b) const {
    return a.fire_at > b.fire_at;  // std::*_heap are max-heaps; invert
  }
};

}  // namespace

ShardRouter::ShardRouter(RouterConfig config, Completion on_complete)
    : config_(config),
      on_complete_(std::move(on_complete)),
      epoch_(std::chrono::steady_clock::now()),
      hedge_budget_(config.hedge.budget) {
  SYSRLE_REQUIRE(config_.shards >= 1, "ShardRouter: need at least one shard");
  SYSRLE_REQUIRE(config_.replicas >= 1,
                 "ShardRouter: need at least one replica per shard");
  SYSRLE_REQUIRE(config_.virtual_nodes >= 1,
                 "ShardRouter: need at least one virtual node per shard");

  sets_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    ReplicaSetConfig rsc;
    rsc.replicas = config_.replicas;
    rsc.service = config_.replica_service;
    rsc.service.seed = config_.replica_service.seed ^ mix64(s + 0x5a4d);
    rsc.breaker = config_.replica_breaker;
    sets_.push_back(std::make_unique<ReplicaSet>(
        s, rsc, [this, s](std::size_t r) -> DiffService::Completion {
          return [this, s, r](ServiceResponse resp) {
            on_replica_response(s, r, std::move(resp));
          };
        }));
  }

  ring_.reserve(config_.shards * config_.virtual_nodes);
  for (std::size_t s = 0; s < config_.shards; ++s)
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v)
      ring_.emplace_back(
          mix64(config_.seed ^ mix64(s * config_.virtual_nodes + v + 1)), s);
  std::sort(ring_.begin(), ring_.end());

  if (config_.hedge.enabled)
    hedge_thread_ = std::thread([this] { hedge_loop(); });
}

ShardRouter::~ShardRouter() { drain(); }

std::uint64_t ShardRouter::now_us() const {
  return static_cast<std::uint64_t>(
      us_between(epoch_, std::chrono::steady_clock::now()));
}

void ShardRouter::count_metric(const char* name) const {
  if (telemetry_enabled()) global_metrics().add(name);
}

ShardRouter::Fingerprints ShardRouter::fingerprints_of(
    const ServiceRequest& request) {
  // By-handle operands carry their fingerprints: the handle IS the
  // canonical content fingerprint, so nothing is hashed.
  if (request.by_handle()) return {request.ref_handle, request.scan_handle};
  return {image_fingerprint(request.reference),
          image_fingerprint(request.scan)};
}

std::uint64_t ShardRouter::route_key_from(const Fingerprints& fps) {
  return mix64(fps.ref ^ mix64(fps.scan));
}

std::uint64_t ShardRouter::route_key_of(const ServiceRequest& request) {
  if (request.route_key != 0) return request.route_key;
  return route_key_from(fingerprints_of(request));
}

std::size_t ShardRouter::shard_of(std::uint64_t key) const {
  const std::uint64_t point = mix64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, std::size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::optional<RejectReason> ShardRouter::try_submit(ServiceRequest request) {
  SYSRLE_REQUIRE(request.by_handle() ||
                     (request.reference.width() == request.scan.width() &&
                      request.reference.height() == request.scan.height()),
                 "ShardRouter: request image dimensions differ");
  std::vector<Delivery> deliveries;
  std::optional<RejectReason> result;
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++stats_.offered;
    count_metric("router.requests_offered");
    const RequestContext cctx = client_ctx(request.id);

    // Resolve by-handle operands before any routing decision: the pinned
    // images ride inside the request for its whole lifetime (the pin blocks
    // store eviction until the last dispatch copy dies).
    bool unknown_handle = false;
    if (request.by_handle()) {
      if (config_.store) {
        if (request.ref_handle != 0)
          request.pinned_ref = config_.store->acquire(request.ref_handle);
        if (request.scan_handle != 0)
          request.pinned_scan = config_.store->acquire(request.scan_handle);
      }
      unknown_handle = !request.pinned_ref || !request.pinned_scan;
    }

    if (draining_) {
      ++stats_.shed_shutdown;
      result = RejectReason::kShutdown;
      flight_record(FlightEventKind::kShed, cctx, to_string(*result));
      flight_retain(cctx.request_id, "shed");
    } else if (request.deadline.expired()) {
      ++stats_.shed_deadline_at_submit;
      result = RejectReason::kDeadlineExpired;
      flight_record(FlightEventKind::kShed, cctx, to_string(*result));
      flight_retain(cctx.request_id, "shed");
    } else if (unknown_handle) {
      // Typed shed: the operand was never registered (or already evicted).
      // The caller re-registers and re-submits; nothing is silently dropped.
      ++stats_.shed_unknown_handle;
      result = RejectReason::kUnknownHandle;
      count_metric("router.unknown_handle_sheds");
      flight_record(FlightEventKind::kShed, cctx, to_string(*result));
      flight_retain(cctx.request_id, "shed");
    } else {
      SYSRLE_REQUIRE(
          request.ref_image().width() == request.scan_image().width() &&
              request.ref_image().height() == request.scan_image().height(),
          "ShardRouter: by-handle image dimensions differ");
      // Result cache: only by-handle requests are eligible — their key is
      // the verified store fingerprint pair, so a hit is answerable without
      // re-hashing anything.
      const bool cacheable = cacheable_request(request);
      const bool coalescible = !hooked(request);

      // Each operand is fingerprinted at most once per submission; the
      // route key and the cache/coalescing key both derive from the pair.
      // A by-value request with a caller-set route key that cannot coalesce
      // needs neither, and hashes nothing.
      const Fingerprints fps =
          request.by_handle() || request.route_key == 0 || coalescible
              ? fingerprints_of(request)
              : Fingerprints{};
      const std::uint64_t key =
          request.route_key != 0 ? request.route_key : route_key_from(fps);
      const std::size_t home = shard_of(key);
      const ResultKey rkey = result_key(fps.ref, fps.scan, request.options);

      bool served_from_cache = false;
      if (cacheable) {
        if (const std::shared_ptr<const CachedDiff> hit = config_.cache->lookup(
                rkey, request.ref_image(), request.scan_image())) {
          // Bit-identical replay of the original completion; no engine, no
          // queue, no dispatch.  Delivered outside the lock like every
          // other response.
          ++stats_.admitted;
          ++stats_.completed;
          ++stats_.cache_hits;
          count_metric("router.cache_hits");
          flight_record(FlightEventKind::kAdmit, cctx, "cache");
          flight_record(FlightEventKind::kCacheHit, cctx, "", rkey.fp_a);
          ServiceResponse resp;
          resp.id = request.id;
          resp.priority = request.priority;
          resp.status = ServiceResponse::Status::kCompleted;
          resp.from_cache = true;
          if (request.keep_diff) resp.diff = hit->diff;
          resp.rows_processed = hit->rows_processed;
          resp.fallback_rows = hit->fallback_rows;
          flight_record(FlightEventKind::kRespond, cctx,
                        to_string(resp.status));
          deliveries.push_back({std::move(resp)});
          served_from_cache = true;
        } else {
          ++stats_.cache_misses;
          count_metric("router.cache_misses");
          flight_record(FlightEventKind::kCacheMiss, cctx, "", rkey.fp_a);
        }
      }

      if (!served_from_cache) {
        // Coalescing: a duplicate of an in-flight call joins it as a waiter.
        // The operand check defeats fingerprint collisions, and a request
        // that needs its diff joins only an owner that keeps one.  Either
        // mismatch runs the request as its own call, left out of the index
        // so the owner's entry stays put.
        bool index = false;
        if (coalescible) {
          const auto owner = inflight_.find(rkey);
          if (owner == inflight_.end()) {
            index = true;
          } else if (!same_operands(owner->second->request, request)) {
            ++stats_.coalesce_collisions;
          } else if (!request.keep_diff || owner->second->request.keep_diff) {
            flight_record(FlightEventKind::kAdmit, cctx, "coalesced");
            flight_record(FlightEventKind::kCoalesceJoined, cctx, "",
                          owner->second->request.id);
            owner->second->waiters.push_back(
                {std::move(request), std::chrono::steady_clock::now()});
            ++stats_.coalesced;
            ++stats_.admitted;
            count_metric("router.coalesced");
            return std::nullopt;
          }
        }

        auto call = std::make_shared<Call>();
        call->call_id = next_call_id_++;
        call->request = std::move(request);
        call->accepted = std::chrono::steady_clock::now();
        call->key = key;
        call->home_shard = home;
        call->rkey = rkey;
        call->cacheable = cacheable;

        result = dispatch_locked(call, /*is_hedge=*/false,
                                 /*exclude_replica=*/SIZE_MAX);
        if (result) {
          if (*result == RejectReason::kShardDown) {
            ++stats_.shed_shard_down;
            count_metric("router.shard_down_sheds");
          } else {
            ++stats_.shed_shutdown;
          }
          flight_record(FlightEventKind::kShed, cctx, to_string(*result));
          flight_retain(cctx.request_id, "shed");
        } else {
          ++stats_.admitted;
          flight_record(FlightEventKind::kAdmit, cctx, "primary");
          calls_.emplace(call->call_id, call);
          if (index) inflight_.emplace(rkey, call);
          schedule_hedge_locked(*call, call->accepted);
        }
      }
    }
  }
  deliver(deliveries);
  return result;
}

std::optional<RejectReason> ShardRouter::dispatch_locked(
    const std::shared_ptr<Call>& call, bool is_hedge,
    std::size_t exclude_replica) {
  const bool interactive = call->request.priority == Priority::kInteractive;
  bool crossed_shard = false;

  // Shard order: home first, then — interactive only — the rest of the
  // ring.  Batch work is keyed to its shard (its handles, its cache
  // locality); when the whole shard is down it sheds typed instead of
  // spilling onto healthy shards that interactive traffic needs.
  for (std::size_t hop = 0; hop < sets_.size(); ++hop) {
    if (hop > 0 && !interactive) break;
    const std::size_t shard = (call->home_shard + hop) % sets_.size();
    ReplicaSet& set = *sets_[shard];
    const std::vector<std::size_t> order = set.preference(call->key);

    // Each failed submission records a breaker failure, so this loop
    // terminates: every iteration moves some breaker toward open.
    std::size_t attempts = 0;
    const std::size_t max_attempts =
        set.size() *
        (static_cast<std::size_t>(config_.replica_breaker.failure_threshold) +
         2);
    while (attempts++ < max_attempts) {
      const std::optional<std::size_t> r =
          set.pick(call->key, now_us(), hop == 0 ? exclude_replica : SIZE_MAX);
      if (!r) break;
      if (submit_to_replica_locked(call, shard, *r, is_hedge)) {
        if (*r != order.front() && !is_hedge) {
          ++stats_.failovers;
          count_metric("router.failovers");
          flight_record(FlightEventKind::kFailover, call->last_dispatch_ctx,
                        hop > 0 ? "cross_shard" : "in_shard");
        }
        if (crossed_shard || hop > 0) {
          ++stats_.cross_shard_failovers;
          count_metric("router.cross_shard_failovers");
        }
        return std::nullopt;
      }
    }
    crossed_shard = true;
  }
  return RejectReason::kShardDown;
}

bool ShardRouter::submit_to_replica_locked(const std::shared_ptr<Call>& call,
                                           std::size_t shard,
                                           std::size_t replica,
                                           bool is_hedge) {
  Dispatch d;
  d.call = call;
  d.shard = shard;
  d.replica = replica;
  d.is_hedge = is_hedge;
  d.cancel = std::make_shared<std::atomic<bool>>(false);

  ServiceRequest backend = call->request;  // deep copy: hedges need another
  const std::uint64_t dispatch_id = next_dispatch_id_++;
  backend.id = dispatch_id;
  backend.cancel = d.cancel;

  // Observability identity: client request id (stable across failover,
  // hedging, promotion), this dispatch's ordinal, and where it landed.
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = call->request.id;
  ctx.attempt = call->dispatch_count++;
  ctx.shard = static_cast<std::int32_t>(shard);
  ctx.replica = static_cast<std::int32_t>(replica);
  backend.ctx = ctx;
  d.ctx = ctx;

  const std::shared_ptr<DiffService> service =
      sets_[shard]->replica(replica);
  const std::optional<RejectReason> reason =
      service->try_submit(std::move(backend));
  if (reason) {
    // A shed — queue_full, shutdown (killed replica) — is the
    // router-level health signal: it counts as a replica failure so a
    // replica that keeps shedding gets quarantined.
    const BreakerState before = sets_[shard]->breaker_state(replica);
    const BreakerState after = sets_[shard]->record_failure(replica, now_us());
    if (before != BreakerState::kOpen && after == BreakerState::kOpen) {
      flight_record(FlightEventKind::kBreakerTrip, ctx, to_string(*reason));
      flight_retain(ctx.request_id, "breaker_trip");
    }
    return false;
  }
  flight_record(FlightEventKind::kDispatch, ctx,
                is_hedge ? "hedge" : "primary", dispatch_id);
  ++call->pending_dispatches;
  if (!is_hedge) {
    call->primary_shard = shard;
    call->primary_replica = replica;
  }
  call->last_dispatch_ctx = ctx;
  call->dispatch_ids.push_back(dispatch_id);
  dispatches_.emplace(dispatch_id, std::move(d));
  return true;
}

void ShardRouter::on_replica_response(std::size_t shard, std::size_t replica,
                                      ServiceResponse response) {
  std::vector<Delivery> deliveries;
  {
    std::unique_lock<std::mutex> lk(mu_);
    auto it = dispatches_.find(response.id);
    SYSRLE_REQUIRE(it != dispatches_.end(),
                   "ShardRouter: response for unknown dispatch");
    const Dispatch dispatch = std::move(it->second);
    dispatches_.erase(it);
    const std::shared_ptr<Call>& call = dispatch.call;
    --call->pending_dispatches;

    // Router-level breaker accounting for the replica that served it.  A
    // deadline expiry or hedge cancellation says nothing about replica
    // health; release the probe slot pick() may have taken.
    switch (response.status) {
      case ServiceResponse::Status::kCompleted:
        sets_[shard]->record_success(replica, now_us());
        break;
      case ServiceResponse::Status::kRejected:
        sets_[shard]->release_probe(replica);
        break;
    }

    if (call->finished) {
      // The losing half of a hedged pair (cancelled, or it finished after
      // the winner): swallow — the client already has its one response.
      if (dispatch.is_hedge) {
        ++stats_.hedges_lost;
        count_metric("router.hedges_lost");
        flight_record(FlightEventKind::kHedgeLost, dispatch.ctx,
                      to_string(response.status));
      }
      if (call->pending_dispatches == 0) calls_.erase(call->call_id);
    } else if (response.status == ServiceResponse::Status::kCompleted) {
      finish_call_locked(call, response, dispatch.is_hedge, dispatch.ctx,
                         deliveries);
    } else if (call->pending_dispatches == 0) {
      // A rejection with no hedge twin left to rescue the request (while a
      // twin still runs, its outcome decides instead).
      finish_call_locked(call, response, dispatch.is_hedge, dispatch.ctx,
                         deliveries);
    }
  }
  deliver(deliveries);
}

ServiceResponse ShardRouter::client_response_locked(
    const Call& call, const ServiceResponse& winner) const {
  ServiceResponse r = winner;
  r.id = call.request.id;
  r.priority = call.request.priority;
  r.total_us = us_between(call.accepted, std::chrono::steady_clock::now());
  return r;
}

void ShardRouter::finish_call_locked(const std::shared_ptr<Call>& call,
                                     const ServiceResponse& winner,
                                     bool winner_is_hedge,
                                     const RequestContext& winner_ctx,
                                     std::vector<Delivery>& out) {
  call->finished = true;

  // Cancel the losing dispatch (if a hedge twin is still in flight): the
  // token trips the backend's deadline machinery at its next check.
  for (const std::uint64_t id : call->dispatch_ids) {
    auto it = dispatches_.find(id);
    if (it != dispatches_.end())
      it->second.cancel->store(true, std::memory_order_release);
  }

  if (winner_is_hedge &&
      winner.status == ServiceResponse::Status::kCompleted) {
    ++stats_.hedges_won;
    count_metric("router.hedges_won");
    // A hedge win is an anomaly worth keeping whole: the retained timeline
    // shows the slow primary, the hedge decision, and the win.
    flight_record(FlightEventKind::kHedgeWon, winner_ctx);
    flight_retain(winner_ctx.request_id, "hedge_won");
  }

  // Feed the result cache: a cache-eligible completion with a payload (the
  // diff was kept) becomes the stored answer for this fingerprint pair.
  // The operand references are non-pinning shares of the store entries, so
  // caching never blocks store eviction.
  if (call->cacheable && config_.cache &&
      winner.status == ServiceResponse::Status::kCompleted &&
      call->request.keep_diff) {
    config_.cache->insert(
        call->rkey, call->request.pinned_ref.share(),
        call->request.pinned_scan.share(),
        CachedDiff{winner.diff, winner.rows_processed, winner.fallback_rows});
    ++stats_.cache_stores;
    count_metric("router.cache_stores");
  }

  // The client's one response.
  const ServiceResponse client = client_response_locked(*call, winner);
  switch (client.status) {
    case ServiceResponse::Status::kCompleted:
      ++stats_.completed;
      hedge_budget_.record_success();
      if (client.priority == Priority::kInteractive)
        interactive_latency_us_.add(client.total_us);
      break;
    case ServiceResponse::Status::kRejected:
      ++stats_.rejected;
      break;
  }
  flight_record(FlightEventKind::kRespond, client_ctx(client.id),
                to_string(client.status),
                static_cast<std::uint64_t>(client.total_us));
  out.push_back({client});

  // Waiters.  One whose own (shorter) deadline lapsed while the primary
  // ran is shed typed.  A completed outcome propagates to every other
  // waiter as a bit-identical copy.  A rejected outcome (the primary's deadline expired or it was shed mid-flight)
  // promotes a live waiter into a fresh primary — the computation is still
  // wanted, just not by the original requester.
  std::vector<Waiter> waiters = std::move(call->waiters);
  call->waiters.clear();
  const auto now = std::chrono::steady_clock::now();
  const auto reject_waiter = [&](const ServiceRequest& request,
                                 std::chrono::steady_clock::time_point arrived,
                                 RejectReason reason) {
    ServiceResponse wr;
    wr.status = ServiceResponse::Status::kRejected;
    wr.reject_reason = reason;
    wr.id = request.id;
    wr.priority = request.priority;
    wr.total_us = us_between(arrived, now);
    ++stats_.rejected;
    if (reason == RejectReason::kDeadlineExpired) {
      ++stats_.waiter_deadline_sheds;
      flight_record(FlightEventKind::kDeadlineExpired, client_ctx(wr.id),
                    "waiter");
      flight_retain(wr.id, "deadline_expired");
    } else if (reason == RejectReason::kShardDown) {
      count_metric("router.shard_down_sheds");
    }
    flight_record(FlightEventKind::kRespond, client_ctx(wr.id),
                  to_string(wr.status),
                  static_cast<std::uint64_t>(wr.total_us));
    out.push_back({std::move(wr)});
  };

  std::vector<Waiter> live;
  for (Waiter& waiter : waiters) {
    if (waiter.request.deadline.expired())
      reject_waiter(waiter.request, waiter.arrived,
                    RejectReason::kDeadlineExpired);
    else
      live.push_back(std::move(waiter));
  }

  std::shared_ptr<Call> promoted;
  if (winner.status == ServiceResponse::Status::kCompleted) {
    for (const Waiter& waiter : live) {
      ServiceResponse wr = winner;  // same diff bytes as the primary's
      if (!waiter.request.keep_diff) wr.diff = RleImage(0, 0);
      ++stats_.completed;
      wr.id = waiter.request.id;
      wr.priority = waiter.request.priority;
      wr.queue_us = 0.0;
      wr.total_us = us_between(waiter.arrived, now);
      flight_record(FlightEventKind::kRespond, client_ctx(wr.id),
                    to_string(wr.status),
                    static_cast<std::uint64_t>(wr.total_us));
      out.push_back({std::move(wr)});
    }
  } else {
    while (!live.empty()) {
      // Promote a waiter that keeps its diff when any does, so every waiter
      // carried over still satisfies the join rule against the new owner.
      auto pick = std::find_if(live.begin(), live.end(), [](const Waiter& w) {
        return w.request.keep_diff;
      });
      if (pick == live.end()) pick = live.begin();
      auto next = std::make_shared<Call>();
      next->call_id = next_call_id_++;
      next->request = std::move(pick->request);
      next->accepted = pick->arrived;
      live.erase(pick);
      next->key = call->key;
      next->home_shard = call->home_shard;
      next->rkey = call->rkey;
      next->cacheable = cacheable_request(next->request);
      if (const std::optional<RejectReason> reason =
              dispatch_locked(next, /*is_hedge=*/false, SIZE_MAX)) {
        // Nowhere to run it: the waiter was admitted, so it gets a typed
        // response (shard_down / shutdown), never silence.
        reject_waiter(next->request, next->accepted, *reason);
        continue;
      }
      next->waiters = std::move(live);
      calls_.emplace(next->call_id, next);
      ++stats_.coalesce_promotions;
      count_metric("router.coalesce_promotions");
      flight_record(FlightEventKind::kCoalescePromoted,
                    client_ctx(next->request.id), "", call->request.id);
      schedule_hedge_locked(*next, std::chrono::steady_clock::now());
      promoted = std::move(next);
      break;
    }
  }

  // The index follows the computation: a promoted waiter inherits this
  // call's entry, otherwise the key is free again.  A call that ran
  // unindexed (a collision, or a keep_diff mismatch) leaves the owner's
  // entry alone.
  const auto slot = inflight_.find(call->rkey);
  if (slot != inflight_.end() && slot->second == call) {
    if (promoted)
      slot->second = promoted;
    else
      inflight_.erase(slot);
  }

  if (call->pending_dispatches == 0) calls_.erase(call->call_id);
}

bool ShardRouter::cacheable_request(const ServiceRequest& request) const {
  return config_.cache != nullptr && request.by_handle() && !hooked(request);
}

void ShardRouter::schedule_hedge_locked(
    const Call& call, std::chrono::steady_clock::time_point from) {
  if (!config_.hedge.enabled ||
      call.request.priority != Priority::kInteractive)
    return;
  hedge_heap_.push_back(
      {from + std::chrono::microseconds(current_hedge_delay_us()),
       call.call_id});
  std::push_heap(hedge_heap_.begin(), hedge_heap_.end(), HedgeEarlier{});
  hedge_cv_.notify_one();
}

std::uint64_t ShardRouter::current_hedge_delay_us() const {
  const HedgePolicy& h = config_.hedge;
  if (h.fixed_delay_us > 0) return h.fixed_delay_us;
  if (interactive_latency_us_.count() <
      static_cast<std::size_t>(h.min_samples))
    return h.initial_delay_us;
  const double p99 = interactive_latency_us_.p99();
  return std::clamp(static_cast<std::uint64_t>(p99), h.min_delay_us,
                    h.max_delay_us);
}

void ShardRouter::fire_hedge_locked(const std::shared_ptr<Call>& call) {
  call->hedge_fired = true;
  if (!hedge_budget_.try_spend()) {
    ++stats_.hedges_suppressed;
    count_metric("router.hedges_suppressed");
    flight_record(FlightEventKind::kHedgeSuppressed,
                  client_ctx(call->request.id), "budget");
    return;
  }

  // Second copy to a different replica: same shard first (excluding the
  // primary's replica), then — the request is interactive by construction —
  // any other shard.
  const std::size_t home = call->home_shard;
  std::size_t attempts = 0;
  for (std::size_t hop = 0; hop < sets_.size(); ++hop) {
    const std::size_t shard = (home + hop) % sets_.size();
    ReplicaSet& set = *sets_[shard];
    const std::size_t exclude =
        (hop == 0 && call->primary_shard == shard) ? call->primary_replica
                                                   : SIZE_MAX;
    const std::size_t max_attempts =
        set.size() *
        (static_cast<std::size_t>(config_.replica_breaker.failure_threshold) +
         2);
    while (attempts++ < max_attempts) {
      const std::optional<std::size_t> r =
          set.pick(call->key, now_us(), exclude);
      if (!r) break;
      if (submit_to_replica_locked(call, shard, *r, /*is_hedge=*/true)) {
        ++stats_.hedges_fired;
        count_metric("router.hedges_fired");
        flight_record(FlightEventKind::kHedgeFired, call->last_dispatch_ctx,
                      hop == 0 ? "in_shard" : "cross_shard");
        return;
      }
    }
  }
  // No second replica could take it: give the token back — nothing fired.
  hedge_budget_.refund();
  ++stats_.hedges_unroutable;
  count_metric("router.hedges_unroutable");
  flight_record(FlightEventKind::kHedgeUnroutable,
                client_ctx(call->request.id));
}

void ShardRouter::hedge_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!draining_) {
    if (hedge_heap_.empty()) {
      hedge_cv_.wait(lk);
      continue;
    }
    const auto fire_at = hedge_heap_.front().fire_at;
    if (std::chrono::steady_clock::now() < fire_at) {
      hedge_cv_.wait_until(lk, fire_at);
      continue;
    }
    std::pop_heap(hedge_heap_.begin(), hedge_heap_.end(), HedgeEarlier{});
    const HedgeEntry entry = hedge_heap_.back();
    hedge_heap_.pop_back();
    auto it = calls_.find(entry.call_id);
    if (it == calls_.end()) continue;
    const std::shared_ptr<Call> call = it->second;
    if (call->finished || call->hedge_fired) continue;
    fire_hedge_locked(call);
  }
}

void ShardRouter::deliver(std::vector<Delivery>& deliveries) {
  if (!on_complete_) return;
  for (Delivery& d : deliveries) on_complete_(std::move(d.response));
}

void ShardRouter::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Idempotent: a second drain() (e.g. the destructor after an explicit
    // drain) finds the hedge thread no longer joinable.
    draining_ = true;
    hedge_cv_.notify_all();
  }
  if (hedge_thread_.joinable()) hedge_thread_.join();
  // Replica drains deliver every outstanding response; those responses
  // resolve every pending call (and its waiters) through
  // on_replica_response, which still runs during drain.
  for (const auto& set : sets_) set->drain();
}

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

ServiceStats ShardRouter::backend_stats() const {
  ServiceStats total;
  for (const auto& set : sets_) {
    const ServiceStats s = set->aggregate_stats();
    total.offered += s.offered;
    total.admitted += s.admitted;
    total.completed += s.completed;
    total.shed_queue_full += s.shed_queue_full;
    total.shed_shutdown += s.shed_shutdown;
    total.shed_deadline_at_submit += s.shed_deadline_at_submit;
    total.shed_deadline_after_admit += s.shed_deadline_after_admit;
    total.cancelled += s.cancelled;
    total.deadline_misses += s.deadline_misses;
    total.engine_invocations += s.engine_invocations;
    total.fallback_rows += s.fallback_rows;
  }
  return total;
}

BreakerState ShardRouter::replica_breaker_state(std::size_t shard,
                                                std::size_t replica) const {
  return sets_.at(shard)->breaker_state(replica);
}

std::size_t ShardRouter::healthy_replicas() const {
  std::size_t healthy = 0;
  for (const auto& set : sets_)
    for (std::size_t r = 0; r < set->size(); ++r)
      if (set->breaker_state(r) != BreakerState::kOpen) ++healthy;
  return healthy;
}

void ShardRouter::kill_replica(std::size_t shard, std::size_t replica) {
  sets_.at(shard)->kill(replica);
}

void ShardRouter::revive_replica(std::size_t shard, std::size_t replica) {
  sets_.at(shard)->revive(replica);
}

}  // namespace sysrle
