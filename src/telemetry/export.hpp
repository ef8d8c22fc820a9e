#pragma once

// Machine-readable exports of the telemetry state:
//
//   to_prometheus     Prometheus text exposition format 0.0.4 (counters,
//                     gauges, histograms with cumulative le-buckets) —
//                     what a fleet scraper ingests.
//   to_json           JSON snapshot of the same registry, with estimated
//                     p50/p95/p99 per histogram — for dashboards and for
//                     diffing in tests.
//   to_chrome_trace   span records as Chrome trace_event complete events
//                     ("X" phase) — load in chrome://tracing or Perfetto
//                     for a per-frame span timeline.

#include <span>
#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace hawc {
class thread_pool;
}

namespace hawc::telemetry {

std::string to_prometheus(const metrics_registry& reg);

std::string to_json(const metrics_registry& reg);

std::string to_chrome_trace(std::span<const span_record> spans);

/// Append `s` to `out` as the body of a JSON string: quote, backslash,
/// \n, \r and \t get their short escapes, and every other byte below
/// 0x20 becomes \u00XX. The one JSON string escaper (to_json,
/// obs::to_json_line).
void append_json_escaped(std::string& out, std::string_view s);

/// Sample the pool's instantaneous state into gauges (lanes, active lanes,
/// utilization, cumulative fan-out/inline dispatch totals). Call before a
/// scrape; gauges are registered on first use.
void record_pool_gauges(metrics_registry& reg, const thread_pool& pool);

}  // namespace hawc::telemetry
