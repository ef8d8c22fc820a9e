// Tests for the telemetry subsystem: registry exactness under concurrent
// writers, histogram quantile estimation, span nesting and ring bounding,
// exporter golden strings, and the supervisor's per-frame span tree. The
// suite name is "telemetry" so check.sh runs it under TSan alongside the
// thread_pool and determinism suites.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "runtime/supervisor.hpp"
#include "telemetry/telemetry.hpp"

namespace hawc {
namespace {

using telemetry::no_span;
using telemetry::span_record;

// Cheap deterministic classifier (mirrors test_runtime): humans are
// tall-ish, compact clusters.
class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

// Synthetic pole capture: ground plane plus person-sized blobs.
point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 400; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 120; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return cloud;
}

std::vector<span_record> spans_named(const std::vector<span_record>& spans,
                                     const std::string& name) {
    std::vector<span_record> out;
    for (const auto& s : spans) {
        if (name == s.name) out.push_back(s);
    }
    return out;
}

// --- Registry primitives ---

TEST(telemetry, counters_and_gauges_are_exact_under_concurrent_writers) {
    telemetry::metrics_registry reg;
    telemetry::counter& c = reg.make_counter("events_total");
    telemetry::gauge& g = reg.make_gauge("accumulated");
    telemetry::latency_histogram& h =
        reg.make_histogram("lat_ms", telemetry::latency_histogram::default_latency_bounds_ms());

    constexpr std::size_t threads = 8;
    constexpr std::size_t per_thread = 10000;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = 0; i < per_thread; ++i) {
                c.add(1);
                g.add(1.0);
                h.record(1.0);  // integral sample: the CAS sum stays exact
            }
        });
    }
    for (auto& th : pool) th.join();

    EXPECT_EQ(c.value(), threads * per_thread);
    EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(threads * per_thread));
    EXPECT_EQ(h.count(), threads * per_thread);
    EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(threads * per_thread));
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1.0);
}

TEST(telemetry, histogram_quantiles_interpolate_and_clamp_to_observed_range) {
    telemetry::latency_histogram h{{1.0, 10.0, 100.0}};
    for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));  // 1..100 ms

    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    // 1 sample <= 1, 9 in (1,10], 90 in (10,100]: the p50/p95 ranks land
    // in the wide (10,100] bucket, interpolated linearly.
    EXPECT_NEAR(h.quantile(0.50), 50.0, 5.0);
    EXPECT_NEAR(h.quantile(0.95), 95.0, 5.0);
    // Quantiles never escape the observed range.
    EXPECT_GE(h.quantile(0.0), 1.0);
    EXPECT_LE(h.quantile(1.0), 100.0);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(telemetry, registry_is_idempotent_per_name_and_rejects_type_collisions) {
    telemetry::metrics_registry reg;
    telemetry::counter& a = reg.make_counter("x_total", "first");
    telemetry::counter& b = reg.make_counter("x_total", "second registration ignored");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.metric_count(), 1u);

    EXPECT_THROW(reg.make_gauge("x_total"), invalid_argument_error);
    EXPECT_THROW(reg.make_histogram("x_total", {1.0}), invalid_argument_error);

    EXPECT_EQ(reg.find_counter("x_total"), &a);
    EXPECT_EQ(reg.find_gauge("x_total"), nullptr);
    EXPECT_EQ(reg.find_counter("absent"), nullptr);

    // Histogram bounds are validated at registration.
    EXPECT_THROW(reg.make_histogram("bad", {}), invalid_argument_error);
    EXPECT_THROW(reg.make_histogram("bad", {5.0, 1.0}), invalid_argument_error);
}

// --- Spans ---

TEST(telemetry, scoped_spans_nest_and_record_on_destruction) {
    telemetry::trace_sink sink{16};
    telemetry::tracer tr{&sink};
    tr.begin_frame(42);
    {
        telemetry::scoped_span outer{&tr, "outer"};
        ASSERT_TRUE(outer.active());
        {
            telemetry::scoped_span inner{&tr, "inner", outer.id()};
            ASSERT_TRUE(inner.active());
            EXPECT_NE(inner.id(), outer.id());
        }
        // inner recorded first (it finished first)...
        EXPECT_EQ(sink.recorded(), 1u);
    }
    // ...then outer.
    const auto spans = sink.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "inner");
    EXPECT_STREQ(spans[1].name, "outer");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[1].parent, no_span);
    EXPECT_EQ(spans[0].frame, 42u);
    EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
    // The child opened after and closed before its parent.
    EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
    EXPECT_LE(spans[0].end_ns, spans[1].end_ns);
}

TEST(telemetry, trace_ring_keeps_newest_spans_oldest_first) {
    telemetry::trace_sink sink{4};
    telemetry::tracer tr{&sink};
    for (int i = 0; i < 6; ++i) telemetry::scoped_span span{&tr, "s"};

    EXPECT_EQ(sink.recorded(), 6u);
    const auto spans = sink.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // Ids are handed out 1..6; the ring keeps the newest four in order.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].id, static_cast<telemetry::span_id>(3 + i));
    }

    sink.clear();
    EXPECT_TRUE(sink.snapshot().empty());
    EXPECT_EQ(sink.recorded(), 0u);
}

TEST(telemetry, spans_are_inert_without_a_sink) {
    telemetry::tracer tr;  // no sink
    telemetry::scoped_span span{&tr, "noop"};
    EXPECT_FALSE(span.active());
    span.finish();  // idempotent, no crash

    telemetry_handle inert;  // default handle: no metrics, no tracer
    EXPECT_FALSE(inert.tracing());
    telemetry::scoped_span via_handle{inert, "noop"};
    EXPECT_FALSE(via_handle.active());
}

// --- Supervisor span tree ---

TEST(telemetry, supervisor_emits_complete_span_tree_per_frame) {
    const extent_classifier classifier;
    supervisor_config cfg;
    frame_supervisor supervisor{cfg, classifier};
    telemetry::trace_sink sink;
    supervisor.set_trace_sink(&sink);

    rng r{42};
    const point_cloud raw = synth_frame(r, 3);
    const frame_report report = supervisor.process(raw, r);
    ASSERT_NE(report.status, frame_status::dropped);

    const auto spans = sink.snapshot();
    const auto frames = spans_named(spans, "frame");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].parent, no_span);
    EXPECT_EQ(frames[0].frame, 1u);
    EXPECT_EQ(frames[0].code, static_cast<std::uint8_t>(report.status));

    for (const char* stage : {"ingest", "eps_selection", "dbscan", "classify"}) {
        const auto stage_spans = spans_named(spans, stage);
        ASSERT_EQ(stage_spans.size(), 1u) << stage;
        EXPECT_EQ(stage_spans[0].parent, frames[0].id) << stage;
        EXPECT_GE(stage_spans[0].start_ns, frames[0].start_ns) << stage;
        EXPECT_LE(stage_spans[0].end_ns, frames[0].end_ns) << stage;
    }

    // One classify_cluster span per examined cluster, all under classify.
    const auto classify = spans_named(spans, "classify");
    const auto per_cluster = spans_named(spans, "classify_cluster");
    EXPECT_EQ(per_cluster.size(), report.cluster_count);
    for (const auto& s : per_cluster) EXPECT_EQ(s.parent, classify[0].id);

    // A second frame gets a fresh frame number.
    (void)supervisor.process(raw, r);
    const auto frames2 = spans_named(sink.snapshot(), "frame");
    ASSERT_EQ(frames2.size(), 2u);
    EXPECT_EQ(frames2[1].frame, 2u);
}

TEST(telemetry, supervisor_traces_dropped_frames_with_status_code) {
    const extent_classifier classifier;
    supervisor_config cfg;
    frame_supervisor supervisor{cfg, classifier};
    telemetry::trace_sink sink;
    supervisor.set_trace_sink(&sink);

    rng r{1};
    point_cloud tiny;  // below min_raw_points -> dropped at ingest
    for (int i = 0; i < 5; ++i) tiny.push_back({1.0, 1.0, static_cast<double>(i)});
    const frame_report report = supervisor.process(tiny, r);
    ASSERT_EQ(report.status, frame_status::dropped);

    const auto spans = sink.snapshot();
    const auto frames = spans_named(spans, "frame");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].code, static_cast<std::uint8_t>(frame_status::dropped));
    // The truncated frame still traces its ingest attempt, and nothing
    // downstream of the drop.
    EXPECT_EQ(spans_named(spans, "ingest").size(), 1u);
    EXPECT_TRUE(spans_named(spans, "dbscan").empty());
    EXPECT_TRUE(spans_named(spans, "classify_cluster").empty());
}

TEST(telemetry, supervisor_without_sink_records_metrics_only) {
    const extent_classifier classifier;
    supervisor_config cfg;
    frame_supervisor supervisor{cfg, classifier};

    rng r{42};
    (void)supervisor.process(synth_frame(r, 2), r);
    EXPECT_EQ(supervisor.metrics().find_counter("hawc_frames_total")->value(), 1u);
}

// --- Exporters ---

TEST(telemetry, prometheus_exposition_golden_string) {
    telemetry::metrics_registry reg;
    reg.make_counter("requests_total", "Total requests").add(3);
    reg.make_gauge("queue_depth", "Items waiting").set(2.5);
    telemetry::latency_histogram& h = reg.make_histogram("lat_ms", {1.0, 10.0}, "Latency");
    h.record(0.5);
    h.record(5.0);
    h.record(20.0);

    const std::string expected =
        "# HELP requests_total Total requests\n"
        "# TYPE requests_total counter\n"
        "requests_total 3\n"
        "# HELP queue_depth Items waiting\n"
        "# TYPE queue_depth gauge\n"
        "queue_depth 2.5\n"
        "# HELP lat_ms Latency\n"
        "# TYPE lat_ms histogram\n"
        "lat_ms_bucket{le=\"1\"} 1\n"
        "lat_ms_bucket{le=\"10\"} 2\n"
        "lat_ms_bucket{le=\"+Inf\"} 3\n"
        "lat_ms_sum 25.5\n"
        "lat_ms_count 3\n";
    EXPECT_EQ(telemetry::to_prometheus(reg), expected);
}

TEST(telemetry, json_snapshot_golden_string) {
    telemetry::metrics_registry reg;
    reg.make_counter("requests_total").add(3);
    reg.make_gauge("queue_depth").set(2.5);
    telemetry::latency_histogram& h = reg.make_histogram("lat_ms", {1.0, 10.0});
    h.record(0.5);
    h.record(5.0);
    h.record(20.0);

    // p50: rank 1.5 falls in (1,10] with one prior sample -> 5.5;
    // p95/p99: ranks 2.85/2.97 interpolate the overflow bucket toward
    // the observed max of 20 -> 18.5 / 19.7.
    const std::string expected =
        "{\n"
        "  \"counters\": {\n"
        "    \"requests_total\": 3\n"
        "  },\n"
        "  \"gauges\": {\n"
        "    \"queue_depth\": 2.5\n"
        "  },\n"
        "  \"histograms\": {\n"
        "    \"lat_ms\": {\"count\": 3, \"sum\": 25.5, \"min\": 0.5, \"max\": 20, "
        "\"p50\": 5.5, \"p95\": 18.5, \"p99\": 19.7, \"buckets\": "
        "[{\"le\": 1, \"count\": 1}, {\"le\": 10, \"count\": 2}, "
        "{\"le\": \"+Inf\", \"count\": 3}]}\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(telemetry::to_json(reg), expected);
}

TEST(telemetry, labeled_name_composes_and_rejects_delimiters) {
    EXPECT_EQ(telemetry::labeled_name("hawc_pole_frames_total", "pole", "p3"),
              "hawc_pole_frames_total@pole=p3");
    EXPECT_THROW(telemetry::labeled_name("", "pole", "p3"), error);
    EXPECT_THROW(telemetry::labeled_name("a@b", "pole", "p3"), error);
    EXPECT_THROW(telemetry::labeled_name("ok", "po=le", "p3"), error);
    // '@' delimits segments, so values may not contain it either.
    EXPECT_THROW(telemetry::labeled_name("ok", "pole", "p@3"), error);
}

TEST(telemetry, labeled_name_composes_multiple_pairs) {
    const telemetry::metric_label labels[] = {
        {"version", "0.8.0"}, {"isa", "avx2"}, {"sanitizer", "none"}};
    EXPECT_EQ(telemetry::labeled_name("hawc_build_info", labels),
              "hawc_build_info@version=0.8.0@isa=avx2@sanitizer=none");
    EXPECT_EQ(telemetry::labeled_name("bare", std::span<const telemetry::metric_label>{}),
              "bare");
    const telemetry::metric_label bad[] = {{"isa", "av@x2"}};
    EXPECT_THROW(telemetry::labeled_name("hawc_build_info", bad), error);
}

TEST(telemetry, prometheus_renders_multi_label_series) {
    telemetry::metrics_registry reg;
    const telemetry::metric_label labels[] = {
        {"version", "0.8.0"}, {"compiler", "gcc-12"}, {"isa", "avx2"}};
    reg.make_gauge(telemetry::labeled_name("build_info", labels), "Build identity")
        .set(1.0);
    const std::string expected =
        "# HELP build_info Build identity\n"
        "# TYPE build_info gauge\n"
        "build_info{version=\"0.8.0\",compiler=\"gcc-12\",isa=\"avx2\"} 1\n";
    EXPECT_EQ(telemetry::to_prometheus(reg), expected);
}

// Exposition format 0.0.4: HELP text must escape backslash and newline,
// or a multi-line help string corrupts the scrape.
TEST(telemetry, prometheus_escapes_help_text) {
    telemetry::metrics_registry reg;
    reg.make_counter("odd_total", "line one\nline two \\ backslash").add(1);
    const std::string expected =
        "# HELP odd_total line one\\nline two \\\\ backslash\n"
        "# TYPE odd_total counter\n"
        "odd_total 1\n";
    EXPECT_EQ(telemetry::to_prometheus(reg), expected);
}

TEST(telemetry, prometheus_renders_label_suffix_as_label_with_escaping) {
    telemetry::metrics_registry reg;
    // Two series of one family, registered out of order, plus a value
    // that needs every escape (quote, backslash, newline).
    reg.make_counter(telemetry::labeled_name("pole_frames_total", "pole", "p1"),
                     "Frames per pole")
        .add(7);
    reg.make_counter(telemetry::labeled_name("pole_frames_total", "pole", "p\"\\\n0"),
                     "Frames per pole")
        .add(3);
    telemetry::latency_histogram& h = reg.make_histogram(
        telemetry::labeled_name("pole_lat_ms", "pole", "p1"), {1.0}, "Latency per pole");
    h.record(0.5);

    const std::string expected =
        "# HELP pole_frames_total Frames per pole\n"
        "# TYPE pole_frames_total counter\n"
        "pole_frames_total{pole=\"p1\"} 7\n"
        "pole_frames_total{pole=\"p\\\"\\\\\\n0\"} 3\n"
        "# HELP pole_lat_ms Latency per pole\n"
        "# TYPE pole_lat_ms histogram\n"
        "pole_lat_ms_bucket{pole=\"p1\",le=\"1\"} 1\n"
        "pole_lat_ms_bucket{pole=\"p1\",le=\"+Inf\"} 1\n"
        "pole_lat_ms_sum{pole=\"p1\"} 0.5\n"
        "pole_lat_ms_count{pole=\"p1\"} 1\n";
    EXPECT_EQ(telemetry::to_prometheus(reg), expected);
}

TEST(telemetry, json_export_keeps_composed_names_verbatim) {
    telemetry::metrics_registry reg;
    reg.make_counter(telemetry::labeled_name("pole_frames_total", "pole", "p0")).add(2);
    const std::string json = telemetry::to_json(reg);
    EXPECT_NE(json.find("\"pole_frames_total@pole=p0\": 2"), std::string::npos);
}

TEST(telemetry, chrome_trace_export_normalizes_timestamps) {
    span_record a;
    a.id = 1;
    a.name = "frame";
    a.frame = 7;
    a.start_ns = 1'000'000;
    a.end_ns = 3'500'000;
    a.tid = 9;
    a.code = 1;
    span_record b;
    b.id = 2;
    b.parent = 1;
    b.name = "ingest";
    b.frame = 7;
    b.start_ns = 1'200'000;
    b.end_ns = 1'700'000;
    b.tid = 9;
    const std::vector<span_record> spans{a, b};

    const std::string trace = telemetry::to_chrome_trace(spans);
    EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    // Earliest span starts at ts 0; durations are microseconds.
    EXPECT_NE(trace.find("\"name\": \"frame\", \"cat\": \"pipeline\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 9, \"ts\": 0.000, \"dur\": 2500.000"),
              std::string::npos);
    EXPECT_NE(trace.find("\"ts\": 200.000, \"dur\": 500.000"), std::string::npos);
    EXPECT_NE(trace.find("\"args\": {\"span\": 2, \"parent\": 1, \"frame\": 7, \"code\": 0}"),
              std::string::npos);

    EXPECT_EQ(telemetry::to_chrome_trace({}), "{\"displayTimeUnit\": \"ms\", "
                                              "\"traceEvents\": []}\n");
}

TEST(telemetry, pool_gauges_reflect_the_global_pool) {
    telemetry::metrics_registry reg;
    telemetry::record_pool_gauges(reg, global_pool());
    ASSERT_NE(reg.find_gauge("hawc_pool_lanes"), nullptr);
    EXPECT_DOUBLE_EQ(reg.find_gauge("hawc_pool_lanes")->value(),
                     static_cast<double>(global_pool().thread_count()));
    EXPECT_GE(reg.find_gauge("hawc_pool_utilization")->value(), 0.0);
    EXPECT_LE(reg.find_gauge("hawc_pool_utilization")->value(), 1.0);

    // A forced fan-out bumps the cumulative dispatch gauge.
    const double before = reg.find_gauge("hawc_pool_jobs_dispatched")->value();
    std::atomic<int> sum{0};
    global_pool().parallel_for(0, 1024, 1, [&](std::size_t lo, std::size_t hi, std::size_t) {
        sum.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
    });
    telemetry::record_pool_gauges(reg, global_pool());
    EXPECT_EQ(sum.load(), 1024);
    if (global_pool().thread_count() > 1) {
        EXPECT_GT(reg.find_gauge("hawc_pool_jobs_dispatched")->value(), before);
    }
}

// --- Health view migration ---

TEST(telemetry, health_view_agrees_with_the_registry) {
    const extent_classifier classifier;
    supervisor_config cfg;
    frame_supervisor supervisor{cfg, classifier};

    rng r{42};
    for (int i = 0; i < 3; ++i) (void)supervisor.process(synth_frame(r, 2), r);
    point_cloud tiny;
    for (int i = 0; i < 5; ++i) tiny.push_back({1.0, 1.0, static_cast<double>(i)});
    (void)supervisor.process(tiny, r);

    const health_counters h = supervisor.health();
    EXPECT_TRUE(h.accounted());
    EXPECT_EQ(h.frames_total, 4u);
    EXPECT_EQ(h.frames_dropped, 1u);
    EXPECT_EQ(h.truncated_frames, 1u);

    const telemetry::metrics_registry& reg = supervisor.metrics();
    const auto counter = [&](const char* name) { return reg.find_counter(name)->value(); };
    EXPECT_EQ(h.frames_total, counter("hawc_frames_total"));
    EXPECT_EQ(h.frames_ok, counter("hawc_frames_ok_total"));
    EXPECT_EQ(h.frames_degraded, counter("hawc_frames_degraded_total"));
    EXPECT_EQ(h.frames_dropped, counter("hawc_frames_dropped_total"));
    EXPECT_EQ(h.fixed_eps_fallbacks, counter("hawc_fallback_fixed_eps_total"));
    EXPECT_EQ(h.float_model_fallbacks, counter("hawc_fallback_float_model_total"));
    EXPECT_EQ(h.stale_counts_served, counter("hawc_stale_counts_served_total"));
    EXPECT_EQ(h.stale_cap_exhausted, counter("hawc_stale_cap_exhausted_total"));
    EXPECT_EQ(h.non_finite_points_dropped, counter("hawc_points_non_finite_dropped_total"));
    EXPECT_EQ(h.duplicate_points_dropped, counter("hawc_points_duplicate_dropped_total"));
    EXPECT_EQ(h.truncated_frames, counter("hawc_frames_truncated_total"));
    EXPECT_EQ(h.classification_truncations, counter("hawc_classification_truncations_total"));
    // No whole-frame deadline: hawc_frame_ms holds every frame's latency.
    EXPECT_EQ(reg.find_counter("hawc_frame_deadline_overruns_total"), nullptr);

    // Stage latency lives only in the registry: one sample per processed
    // frame in each per-frame stage histogram, and reset_health() clears
    // them all along with the counters.
    const char* const frame_stages[] = {"hawc_frame_ms", "hawc_ingest_ms", "hawc_clustering_ms",
                                        "hawc_classification_ms"};
    for (const char* name : frame_stages) {
        ASSERT_NE(reg.find_histogram(name), nullptr) << name;
        EXPECT_EQ(reg.find_histogram(name)->count(), h.frames_total) << name;
    }
    ASSERT_NE(reg.find_histogram("hawc_eps_selection_ms"), nullptr);

    supervisor.reset_health();
    EXPECT_EQ(supervisor.health().frames_total, 0u);
    EXPECT_EQ(reg.find_counter("hawc_frames_total")->value(), 0u);
    for (const char* name : frame_stages) {
        EXPECT_EQ(reg.find_histogram(name)->count(), 0u) << name;
    }
    EXPECT_EQ(reg.find_histogram("hawc_eps_selection_ms")->count(), 0u);
}

TEST(telemetry, health_counters_to_json_round_trips_the_counters) {
    health_counters h;
    h.frames_total = 10;
    h.frames_ok = 7;
    h.frames_degraded = 2;
    h.frames_dropped = 1;
    h.stale_counts_served = 1;
    h.epoch = 3;

    const std::string json = h.to_json();
    EXPECT_NE(json.find("\"frames_total\":10"), std::string::npos);
    EXPECT_NE(json.find("\"frames_ok\":7"), std::string::npos);
    EXPECT_NE(json.find("\"frames_degraded\":2"), std::string::npos);
    EXPECT_NE(json.find("\"frames_dropped\":1"), std::string::npos);
    EXPECT_NE(json.find("\"stale_counts_served\":1"), std::string::npos);
    EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
    EXPECT_EQ(json.find("frame_deadline_overruns"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace hawc
