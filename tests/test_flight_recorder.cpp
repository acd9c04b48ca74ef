// Tests for the flight recorder: lock-free ring semantics (ordering, wrap,
// torn-read rejection, per-thread tids), per-request timelines, anomaly
// retention bounds, the JSONL / Chrome-trace exporters (including a golden
// hedge-win dump pinned byte-for-byte), and a concurrent writer/snapshot
// hammer that CI runs under TSan.

#include "telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/exporters.hpp"
#include "test_util.hpp"

namespace sysrle {
namespace {

using testing::JsonValue;
using testing::parse_json;

RequestContext ctx_of(std::uint64_t rid, std::uint32_t attempt = 0,
                      std::int32_t shard = -1, std::int32_t replica = -1) {
  RequestContext ctx;
  ctx.active = true;
  ctx.request_id = rid;
  ctx.attempt = attempt;
  ctx.shard = shard;
  ctx.replica = replica;
  return ctx;
}

/// Tests install/remove the global recorder; make sure no test leaks one.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override { set_flight_recorder(nullptr); }
};

// -------------------------------------------------------------------- ring

TEST(FlightRecorder, RecordsEventsInSeqOrderWithFullPayload) {
  FlightRecorder fr(128);
  fr.record(FlightEventKind::kAdmit, ctx_of(7), "primary");
  fr.record(FlightEventKind::kDispatch, ctx_of(7, 0, 1, 0), "primary", 42);
  fr.record(FlightEventKind::kRespond, ctx_of(7), "completed", 1234);

  const std::vector<FlightEvent> events = fr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kAdmit);
  EXPECT_STREQ(events[0].detail, "primary");
  EXPECT_TRUE(events[1].ctx.active);
  EXPECT_EQ(events[1].ctx.request_id, 7u);
  EXPECT_EQ(events[1].ctx.shard, 1);
  EXPECT_EQ(events[1].ctx.replica, 0);
  EXPECT_EQ(events[1].arg, 42u);
  EXPECT_EQ(events[2].kind, FlightEventKind::kRespond);
  EXPECT_LE(events[0].ts_us, events[2].ts_us);
  EXPECT_EQ(fr.recorded(), 3u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorder, NowIsMonotonic) {
  FlightRecorder fr(64);
  const std::uint64_t t0 = fr.now_us();
  const std::uint64_t t1 = fr.now_us();
  EXPECT_LE(t0, t1);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwoMinimum64) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(65).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(1 << 10).capacity(), std::size_t{1} << 10);
}

TEST(FlightRecorder, RingWrapsOverwritingOldestAndCountsDrops) {
  FlightRecorder fr(64);  // the minimum ring
  for (std::uint64_t i = 0; i < 100; ++i)
    fr.record(FlightEventKind::kAdmit, ctx_of(i), "", i);

  EXPECT_EQ(fr.recorded(), 100u);
  EXPECT_EQ(fr.dropped(), 36u);
  const std::vector<FlightEvent> events = fr.snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Only the newest 64 survive, still in seq order.
  EXPECT_EQ(events.front().seq, 36u);
  EXPECT_EQ(events.back().seq, 99u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 36u + i);
    EXPECT_EQ(events[i].ctx.request_id, 36u + i);
  }
}

TEST(FlightRecorder, TimelineFiltersOneRequestOutOfTheRing) {
  FlightRecorder fr(128);
  fr.record(FlightEventKind::kAdmit, ctx_of(1));
  fr.record(FlightEventKind::kAdmit, ctx_of(2));
  fr.record(FlightEventKind::kDispatch, ctx_of(1, 0, 0, 0));
  fr.record(FlightEventKind::kRespond, ctx_of(2), "completed");
  fr.record(FlightEventKind::kRespond, ctx_of(1), "completed");
  // Inactive contexts never join any timeline.
  fr.record(FlightEventKind::kBreakerTrip, RequestContext{}, "service");

  const std::vector<FlightEvent> one = fr.timeline(1);
  ASSERT_EQ(one.size(), 3u);
  EXPECT_EQ(one[0].kind, FlightEventKind::kAdmit);
  EXPECT_EQ(one[1].kind, FlightEventKind::kDispatch);
  EXPECT_EQ(one[2].kind, FlightEventKind::kRespond);
  EXPECT_TRUE(fr.timeline(99).empty());
}

TEST(FlightRecorder, KindNamesAreSnakeCase) {
  EXPECT_STREQ(to_string(FlightEventKind::kAdmit), "admit");
  EXPECT_STREQ(to_string(FlightEventKind::kHedgeFired), "hedge_fired");
  EXPECT_STREQ(to_string(FlightEventKind::kCoalescePromoted),
               "coalesce_promoted");
  EXPECT_STREQ(to_string(FlightEventKind::kDeadlineExpired),
               "deadline_expired");
  EXPECT_STREQ(to_string(FlightEventKind::kRespond), "respond");
  EXPECT_STREQ(to_string(FlightEventKind::kSpan), "span");
}

// --------------------------------------------------------------- retention

TEST(FlightRecorder, RetainCopiesTimelineOutOfTheRing) {
  FlightRecorder fr(64);
  fr.record(FlightEventKind::kAdmit, ctx_of(5));
  fr.record(FlightEventKind::kShed, ctx_of(5), "queue_full");
  fr.retain(5, "shed");
  // The ring wraps far past request 5; the retained copy must survive.
  for (std::uint64_t i = 0; i < 200; ++i)
    fr.record(FlightEventKind::kAdmit, ctx_of(1000 + i));

  EXPECT_TRUE(fr.timeline(5).empty()) << "ring view overwritten";
  const std::vector<FlightRecorder::RetainedTimeline> kept = fr.retained();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].request_id, 5u);
  EXPECT_EQ(kept[0].anomaly, "shed");
  ASSERT_EQ(kept[0].events.size(), 2u);
  EXPECT_EQ(kept[0].events[1].kind, FlightEventKind::kShed);
}

TEST(FlightRecorder, RepeatedRetainKeepsLongerViewAndFirstAnomaly) {
  FlightRecorder fr(128);
  fr.record(FlightEventKind::kAdmit, ctx_of(9));
  fr.retain(9, "first");
  fr.record(FlightEventKind::kRespond, ctx_of(9), "completed");
  fr.retain(9, "second");

  const std::vector<FlightRecorder::RetainedTimeline> kept = fr.retained();
  ASSERT_EQ(kept.size(), 1u) << "same request retains once";
  EXPECT_EQ(kept[0].anomaly, "first");
  EXPECT_EQ(kept[0].events.size(), 2u) << "longer view wins";
}

TEST(FlightRecorder, RetainedSetIsBoundedAndRefusalsAreCounted) {
  FlightRecorder fr(128, /*max_retained=*/2);
  for (std::uint64_t rid = 1; rid <= 4; ++rid) {
    fr.record(FlightEventKind::kAdmit, ctx_of(rid));
    fr.retain(rid, "anomaly");
  }
  EXPECT_EQ(fr.retained().size(), 2u);
  EXPECT_EQ(fr.retain_dropped(), 2u);
  // A refused request's id never entered the set.
  for (const auto& t : fr.retained()) EXPECT_LE(t.request_id, 2u);
}

// ------------------------------------------------------------- global hook

TEST_F(FlightRecorderTest, GlobalHookIsNullByDefaultAndRecordsWhenInstalled) {
  EXPECT_EQ(flight_recorder(), nullptr);
  flight_record(FlightEventKind::kAdmit, ctx_of(1));  // no-op, no crash
  flight_retain(1, "nothing");

  FlightRecorder fr(64);
  set_flight_recorder(&fr);
  EXPECT_EQ(flight_recorder(), &fr);
  flight_record(FlightEventKind::kAdmit, ctx_of(1), "primary");
  flight_retain(1, "anomaly");
  set_flight_recorder(nullptr);
  flight_record(FlightEventKind::kAdmit, ctx_of(2));  // after removal: no-op

  EXPECT_EQ(fr.recorded(), 1u);
  ASSERT_EQ(fr.retained().size(), 1u);
  EXPECT_EQ(fr.retained()[0].request_id, 1u);
}

// ---------------------------------------------------------------- exporters

/// The recording threads of the hedge-win story.
struct HedgeLanes {
  std::uint32_t primary = 0;
  std::uint32_t hedge = 0;
};

/// The deterministic hedge-win story used by the golden dump: primary
/// dispatch, hedge fired, hedge wins, primary loses, client responds.  The
/// hedge's dispatch and win are recorded on a second thread.
HedgeLanes record_hedge_win(FlightRecorder& fr) {
  HedgeLanes lanes;
  lanes.primary = current_thread_ordinal();
  fr.record_at(10, FlightEventKind::kAdmit, ctx_of(3), "primary");
  fr.record_at(20, FlightEventKind::kDispatch, ctx_of(3, 0, 0, 0), "primary",
               1);
  fr.record_at(30, FlightEventKind::kHedgeFired, ctx_of(3, 0, 0, 0),
               "in_shard");
  std::thread([&] {
    lanes.hedge = current_thread_ordinal();
    fr.record_at(31, FlightEventKind::kDispatch, ctx_of(3, 1, 0, 1), "hedge",
                 2);
    fr.record_at(40, FlightEventKind::kHedgeWon, ctx_of(3, 1, 0, 1));
  }).join();
  fr.record_at(41, FlightEventKind::kRespond, ctx_of(3), "completed", 31);
  fr.retain(3, "hedge_won");
  return lanes;
}

/// Replaces every `from` in `text` with `to`.
std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
  return text;
}

TEST(FlightRecorder, GoldenHedgeWinJsonl) {
  FlightRecorder fr(64, 4);
  const HedgeLanes lanes = record_hedge_win(fr);
  std::ostringstream os;
  write_flight_jsonl(fr, os);

  // Thread ordinals depend on what ran before in this process; @P and @H
  // stand for the primary's and the hedge's.
  const std::string golden =
      "{\"type\":\"header\",\"schema\":\"sysrle.flight.v1\",\"capacity\":64,"
      "\"recorded\":6,\"dropped\":0,\"retained\":1,\"retain_dropped\":0}\n"
      "{\"type\":\"event\",\"seq\":0,\"ts_us\":10,\"kind\":\"admit\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":-1,"
      "\"replica\":-1,\"detail\":\"primary\",\"arg\":0,\"tid\":@P}\n"
      "{\"type\":\"event\",\"seq\":1,\"ts_us\":20,\"kind\":\"dispatch\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":0,"
      "\"replica\":0,\"detail\":\"primary\",\"arg\":1,\"tid\":@P}\n"
      "{\"type\":\"event\",\"seq\":2,\"ts_us\":30,\"kind\":\"hedge_fired\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":0,"
      "\"replica\":0,\"detail\":\"in_shard\",\"arg\":0,\"tid\":@P}\n"
      "{\"type\":\"event\",\"seq\":3,\"ts_us\":31,\"kind\":\"dispatch\","
      "\"active\":true,\"request_id\":3,\"attempt\":1,\"shard\":0,"
      "\"replica\":1,\"detail\":\"hedge\",\"arg\":2,\"tid\":@H}\n"
      "{\"type\":\"event\",\"seq\":4,\"ts_us\":40,\"kind\":\"hedge_won\","
      "\"active\":true,\"request_id\":3,\"attempt\":1,\"shard\":0,"
      "\"replica\":1,\"detail\":\"\",\"arg\":0,\"tid\":@H}\n"
      "{\"type\":\"event\",\"seq\":5,\"ts_us\":41,\"kind\":\"respond\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":-1,"
      "\"replica\":-1,\"detail\":\"completed\",\"arg\":31,\"tid\":@P}\n"
      "{\"type\":\"retained\",\"request_id\":3,\"anomaly\":\"hedge_won\","
      "\"events\":[{\"seq\":0,\"ts_us\":10,\"kind\":\"admit\","
      "\"active\":true,\"request_id\":3,\"attempt\":0,\"shard\":-1,"
      "\"replica\":-1,\"detail\":\"primary\",\"arg\":0,\"tid\":@P},"
      "{\"seq\":1,\"ts_us\":20,\"kind\":\"dispatch\",\"active\":true,"
      "\"request_id\":3,\"attempt\":0,\"shard\":0,\"replica\":0,"
      "\"detail\":\"primary\",\"arg\":1,\"tid\":@P},"
      "{\"seq\":2,\"ts_us\":30,\"kind\":\"hedge_fired\",\"active\":true,"
      "\"request_id\":3,\"attempt\":0,\"shard\":0,\"replica\":0,"
      "\"detail\":\"in_shard\",\"arg\":0,\"tid\":@P},"
      "{\"seq\":3,\"ts_us\":31,\"kind\":\"dispatch\",\"active\":true,"
      "\"request_id\":3,\"attempt\":1,\"shard\":0,\"replica\":1,"
      "\"detail\":\"hedge\",\"arg\":2,\"tid\":@H},"
      "{\"seq\":4,\"ts_us\":40,\"kind\":\"hedge_won\",\"active\":true,"
      "\"request_id\":3,\"attempt\":1,\"shard\":0,\"replica\":1,"
      "\"detail\":\"\",\"arg\":0,\"tid\":@H},"
      "{\"seq\":5,\"ts_us\":41,\"kind\":\"respond\",\"active\":true,"
      "\"request_id\":3,\"attempt\":0,\"shard\":-1,\"replica\":-1,"
      "\"detail\":\"completed\",\"arg\":31,\"tid\":@P}]}\n";
  const std::string expected =
      replace_all(replace_all(golden, "@P", std::to_string(lanes.primary)),
                  "@H", std::to_string(lanes.hedge));
  EXPECT_EQ(os.str(), expected);
}

TEST(FlightRecorder, JsonlLinesParseIndividually) {
  FlightRecorder fr(64);
  record_hedge_win(fr);
  std::ostringstream os;
  write_flight_jsonl(fr, os);

  std::istringstream in(os.str());
  std::string line;
  std::size_t events = 0, retained = 0;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue header = parse_json(line);
  EXPECT_EQ(header.at("type").string, "header");
  EXPECT_EQ(header.at("schema").string, "sysrle.flight.v1");
  EXPECT_DOUBLE_EQ(header.at("recorded").number, 6.0);
  while (std::getline(in, line)) {
    const JsonValue v = parse_json(line);
    if (v.at("type").string == "event") ++events;
    if (v.at("type").string == "retained") ++retained;
  }
  EXPECT_EQ(events, 6u);
  EXPECT_EQ(retained, 1u);
}

TEST(FlightRecorder, ChromeTraceLinksHedgeWithFlowEvents) {
  FlightRecorder fr(64);
  const HedgeLanes lanes = record_hedge_win(fr);
  std::ostringstream os;
  write_chrome_trace(fr, os);
  const JsonValue root = parse_json(os.str());

  const JsonValue& events = root.at("traceEvents");
  std::size_t instants = 0;
  bool flow_start = false, flow_end = false;
  for (const JsonValue& e : events.array) {
    const std::string ph = e.at("ph").string;
    if (ph == "i") {
      ++instants;
      EXPECT_DOUBLE_EQ(e.at("args").at("request_id").number, 3.0);
    } else if (ph == "s") {
      flow_start = true;
      EXPECT_DOUBLE_EQ(e.at("id").number, 3.0);
      // The hedge fired from the primary's lane (its recording thread) ...
      EXPECT_DOUBLE_EQ(e.at("tid").number, lanes.primary);
    } else if (ph == "f") {
      flow_end = true;
      EXPECT_EQ(e.at("bp").string, "e");
      // ... and resolved on the hedge's lane.
      EXPECT_DOUBLE_EQ(e.at("tid").number, lanes.hedge);
    }
  }
  EXPECT_EQ(instants, 6u);
  EXPECT_TRUE(flow_start);
  EXPECT_TRUE(flow_end);
  EXPECT_NE(lanes.primary, lanes.hedge);
  EXPECT_EQ(root.at("otherData").at("schema").string, "sysrle.trace.v2");
}

TEST(FlightRecorder, SpanEventsExportAsSpanKindInJsonl) {
  FlightRecorder fr(64);
  fr.record_at(5, FlightEventKind::kSpan, ctx_of(8, 0, 1, 0), "stream.push_row",
               12);
  std::ostringstream os;
  write_flight_jsonl(fr, os);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue span = parse_json(line);
  EXPECT_EQ(span.at("kind").string, "span");
  EXPECT_EQ(span.at("detail").string, "stream.push_row");
  EXPECT_DOUBLE_EQ(span.at("ts_us").number, 5.0);
  EXPECT_DOUBLE_EQ(span.at("arg").number, 12.0);  // duration in µs
  EXPECT_DOUBLE_EQ(span.at("request_id").number, 8.0);
  EXPECT_DOUBLE_EQ(span.at("tid").number, current_thread_ordinal());
}

TEST(FlightRecorder, EmptyRecorderExportsHeaderOnly) {
  FlightRecorder fr(64);
  std::ostringstream os;
  write_flight_jsonl(fr, os);
  const std::string dump = os.str();
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 1);
  const JsonValue header = parse_json(dump.substr(0, dump.size() - 1));
  EXPECT_DOUBLE_EQ(header.at("recorded").number, 0.0);
  EXPECT_DOUBLE_EQ(header.at("retained").number, 0.0);
}

// ----------------------------------------------------- thread safety (TSan)

TEST(FlightRecorder, ConcurrentWritersAndSnapshotsStayCoherent) {
  // Exercised under -fsanitize=thread in CI: writers hammer a small ring
  // (constant wrapping) while readers snapshot, take timelines, and retain.
  FlightRecorder fr(256);
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::array<std::atomic<std::uint32_t>, kWriters> writer_tid{};

  std::thread reader([&] {
    while (!stop.load()) {
      const std::vector<FlightEvent> events = fr.snapshot();
      std::uint64_t prev = 0;
      bool first = true;
      for (const FlightEvent& e : events) {
        if (!first) {
          EXPECT_GT(e.seq, prev) << "snapshot must be seq-sorted";
        }
        prev = e.seq;
        first = false;
        // Payload coherence: every surviving event carries the request id
        // its writer stamped (writer w uses rid = w * 1000000 + i).
        EXPECT_EQ(e.arg, e.ctx.request_id);
        EXPECT_EQ(e.tid,
                  writer_tid[static_cast<std::size_t>(e.ctx.shard)].load());
      }
      (void)fr.timeline(1000000);
      fr.retain(1000000, "hammer");
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      writer_tid[static_cast<std::size_t>(w)] = current_thread_ordinal();
      ready.fetch_add(1);
      while (ready.load() < kWriters) {
      }
      for (int i = 0; i < kEventsPerWriter; ++i) {
        const std::uint64_t rid =
            static_cast<std::uint64_t>(w) * 1000000 + static_cast<std::uint64_t>(i);
        fr.record(FlightEventKind::kAdmit, ctx_of(rid, 0, w, 0), "hammer",
                  rid);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(fr.recorded(),
            static_cast<std::uint64_t>(kWriters) * kEventsPerWriter);
  EXPECT_EQ(fr.dropped(),
            static_cast<std::uint64_t>(kWriters) * kEventsPerWriter - 256);
  EXPECT_EQ(fr.snapshot().size(), 256u);
}

}  // namespace
}  // namespace sysrle
