#pragma once
// Exporters for the telemetry layer:
//   * a JSON metrics snapshot ("sysrle.metrics.v1" — counters, gauges,
//     histograms with moments, p50/p95/p99 and bucket counts),
//   * the flight recorder as JSONL ("sysrle.flight.v1"): ring events and
//     retained anomaly timelines, and
//   * the flight recorder as a Chrome trace_event file ("sysrle.trace.v2",
//     the object form with "traceEvents"), loadable directly by
//     chrome://tracing and Perfetto.
//
// Schema versioning policy (docs/OBSERVABILITY.md): the "schema" string is
// bumped whenever a field is removed or changes meaning; adding fields is
// backward compatible and does not bump it.

#include <iosfwd>
#include <string>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace sysrle {

/// Schema identifier embedded in every metrics snapshot.
inline constexpr const char* kMetricsSchema = "sysrle.metrics.v1";

/// Schema identifier on the header line of every flight-recorder JSONL dump.
inline constexpr const char* kFlightSchema = "sysrle.flight.v1";

/// Schema identifier in the "otherData" of every Chrome trace.
inline constexpr const char* kTraceSchema = "sysrle.trace.v2";

/// Writes the snapshot as indented JSON.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);
void write_metrics_json_file(const MetricsSnapshot& snapshot,
                             const std::string& path);

/// Writes the recorder as JSONL ("sysrle.flight.v1"): one compact JSON
/// object per line.  Line 1 is a header ("type":"header") with the schema
/// and ring accounting; then every live ring event ("type":"event") in seq
/// order; then one line per retained anomaly timeline ("type":"retained")
/// carrying its events inline.  Grep-able and `json.loads`-able per line.
void write_flight_jsonl(const FlightRecorder& recorder, std::ostream& out);
void write_flight_jsonl_file(const FlightRecorder& recorder,
                             const std::string& path);

/// Writes the recorder's ring as a Chrome trace ("sysrle.trace.v2"), in
/// start-time order, one lane ("tid") per recording thread: each span as a
/// complete event ("ph":"X", dur = its µs), each other event as an instant
/// ("ph":"i") named by its kind, every event's RequestContext in its args,
/// and flow events ("ph":"s"/"f", id = request id) linking each hedge_fired
/// to its hedge_won/hedge_lost resolution.  A process-name metadata event
/// leads; the ring accounting rides along in "otherData".
void write_chrome_trace(const FlightRecorder& recorder, std::ostream& out);
void write_chrome_trace_file(const FlightRecorder& recorder,
                             const std::string& path);

}  // namespace sysrle
