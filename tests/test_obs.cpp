// Tests for the observability layer: the structured event log (ring,
// deterministic per-kind rate limiting, multi-writer conservation under
// TSan), the black-box flight recorder and its checksummed postmortem
// bundles (save/load round-trip, corruption detection, bit-exact replay
// through replay_driver), the SLO alert engine (grammar, burn-rate
// windows, hysteresis), build-info metrics, and the full quarantine
// drill on an 8-pole fleet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "fleet/fleet_manager.hpp"
#include "obs/build_info.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/postmortem.hpp"
#include "obs/slo.hpp"
#include "replay/frame_format.hpp"
#include "replay/replay_driver.hpp"
#include "telemetry/export.hpp"

namespace hawc {
namespace {

using telemetry::event;
using telemetry::event_kind;
using telemetry::event_severity;
using telemetry::make_event;

// Same deterministic pipeline helpers as test_fleet.cpp: an extent-gate
// classifier, synthetic frames, and zeroed wall-clock deadlines.
class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 220; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 100; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return cloud;
}

supervisor_config det_config() { return without_deadlines({}); }

// Frames pre-rounded to the recorded float32 precision: the flight
// recorder's bit-exactness contract (like the PR4 corpus one) holds when
// the pole processed exactly what the bundle will store.
replay::frame_corpus synth_corpus(std::uint64_t base_seed, std::size_t frames) {
    replay::frame_corpus corpus;
    corpus.name = "synth";
    corpus.base_seed = base_seed;
    rng r{base_seed ^ 0xc0ffeeull};
    for (std::size_t i = 0; i < frames; ++i) {
        replay::frame_record rec;
        const auto people = static_cast<std::size_t>(r.uniform_index(4));
        rec.ground_truth = static_cast<std::uint32_t>(people);
        rec.cloud = replay::round_to_recorded(synth_frame(r, people));
        corpus.frames.push_back(std::move(rec));
    }
    return corpus;
}

fleet::link_message corpus_message(const replay::frame_corpus& corpus,
                                   std::size_t frame) {
    fleet::link_message msg;
    msg.frame_index = frame;
    msg.ground_truth = corpus.frames[frame].ground_truth;
    msg.cloud = corpus.frames[frame].cloud;
    return msg;
}

std::filesystem::path temp_path(const char* stem) {
    return std::filesystem::temp_directory_path() / (std::string{stem} + ".hawcpm");
}

// --- structured event log ---

TEST(obs_events, publish_retains_in_order_with_payload) {
    obs::event_log log{{.capacity = 8, .burst = 0.0}};

    event ev = make_event(event_kind::stage_failure, event_severity::warning, "elbow");
    ev.frame = 7;
    ev.tick = 3;
    ev.set_pole("p2");
    ev.add_field("eps", 0.35);
    EXPECT_TRUE(log.publish(ev));
    EXPECT_TRUE(log.publish(make_event(event_kind::frame_dropped, event_severity::error)));

    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, event_kind::stage_failure);
    EXPECT_EQ(events[0].frame, 7u);
    EXPECT_EQ(events[0].pole_view(), "p2");
    EXPECT_EQ(events[0].what_view(), "elbow");
    EXPECT_DOUBLE_EQ(events[0].field_or("eps", -1.0), 0.35);
    EXPECT_DOUBLE_EQ(events[0].field_or("missing", -1.0), -1.0);
    EXPECT_EQ(events[1].kind, event_kind::frame_dropped);
    EXPECT_EQ(log.published(), 2u);
    EXPECT_EQ(log.suppressed(), 0u);
}

TEST(obs_events, ring_overwrites_oldest) {
    obs::event_log log{{.capacity = 4, .burst = 0.0}};
    for (std::uint64_t i = 0; i < 6; ++i) {
        event ev = make_event(event_kind::isa_dispatch, event_severity::info);
        ev.frame = i;
        log.publish(ev);
    }
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].frame, i + 2);

    const auto last = log.tail(2);
    ASSERT_EQ(last.size(), 2u);
    EXPECT_EQ(last[0].frame, 4u);
    EXPECT_EQ(last[1].frame, 5u);
}

TEST(obs_events, truncation_clips_long_strings) {
    event ev = make_event(event_kind::alert_firing, event_severity::error,
                          "this-detail-is-much-longer-than-the-what-buffer-holds");
    ev.set_pole("pole-with-a-very-long-name");
    EXPECT_EQ(ev.what_view().size(), telemetry::event_what_capacity - 1);
    EXPECT_EQ(ev.pole_view().size(), telemetry::event_pole_capacity - 1);
    for (int i = 0; i < 10; ++i) ev.add_field("k", 1.0);
    EXPECT_EQ(ev.field_count, telemetry::event_max_fields);
}

TEST(obs_events, metrics_mirror_accepted_and_suppressed) {
    telemetry::metrics_registry reg;
    obs::event_log log{{.capacity = 8, .tokens_per_tick = 1.0, .burst = 2.0}};
    log.bind_metrics(reg);

    for (int i = 0; i < 5; ++i) {
        log.publish(make_event(event_kind::frame_dropped, event_severity::error));
    }
    const auto* accepted =
        reg.find_counter(telemetry::labeled_name("hawc_events_total", "kind",
                                                 to_string(event_kind::frame_dropped)));
    const auto* suppressed = reg.find_counter(
        telemetry::labeled_name("hawc_events_suppressed_total", "kind",
                                to_string(event_kind::frame_dropped)));
    const auto* by_severity = reg.find_counter(
        telemetry::labeled_name("hawc_events_severity_total", "severity",
                                to_string(event_severity::error)));
    ASSERT_NE(accepted, nullptr);
    ASSERT_NE(suppressed, nullptr);
    ASSERT_NE(by_severity, nullptr);
    EXPECT_EQ(accepted->value(), 2u);  // burst of 2
    EXPECT_EQ(suppressed->value(), 3u);
    EXPECT_EQ(by_severity->value(), 2u);
}

TEST(obs_events, json_lines_render_and_escape) {
    event ev = make_event(event_kind::pole_quarantined, event_severity::error,
                          "say \"hi\"\n");
    ev.tick = 12;
    ev.frame = 34;
    ev.set_pole("p7");
    ev.add_field("attempt", 2.0);
    EXPECT_EQ(obs::to_json_line(ev),
              "{\"tick\":12,\"frame\":34,\"kind\":\"pole_quarantined\","
              "\"severity\":\"error\",\"pole\":\"p7\",\"what\":\"say \\\"hi\\\"\\n\","
              "\"fields\":{\"attempt\":2}}");

    const std::vector<event> events{ev, ev};
    const std::string lines = obs::to_json_lines(events);
    EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
}

TEST(obs_events, tagging_sink_stamps_pole_and_tick) {
    obs::event_log log{{.capacity = 8, .burst = 0.0}};
    telemetry::tagging_event_sink tagger;
    tagger.set_target(&log);
    tagger.set_pole("p3");
    tagger.set_tick(41);

    EXPECT_TRUE(tagger.publish(make_event(event_kind::pole_restarted, event_severity::info)));
    // An already-attributed pole id is preserved, only the tick is stamped.
    event pre = make_event(event_kind::link_corruption, event_severity::warning);
    pre.set_pole("other");
    EXPECT_TRUE(tagger.publish(pre));

    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].pole_view(), "p3");
    EXPECT_EQ(events[0].tick, 41u);
    EXPECT_EQ(events[1].pole_view(), "other");
    EXPECT_EQ(events[1].tick, 41u);
}

// The TSan-exact soak: many writers hammer one log; every attempt must
// be accounted as published or suppressed (conservation), and the ring
// must stay structurally intact.
TEST(obs_events, multi_writer_conservation_under_contention) {
    obs::event_log log{{.capacity = 64, .tokens_per_tick = 8.0, .burst = 32.0}};
    constexpr int writers = 8;
    constexpr int per_writer = 2000;

    std::vector<std::thread> threads;
    std::vector<std::uint64_t> accepted(writers, 0);
    threads.reserve(writers);
    for (int w = 0; w < writers; ++w) {
        threads.emplace_back([&log, &accepted, w] {
            const auto kind = static_cast<event_kind>(w % telemetry::event_kind_count);
            for (int i = 0; i < per_writer; ++i) {
                event ev = make_event(kind, event_severity::info);
                ev.frame = static_cast<std::uint64_t>(i);
                if (log.publish(ev)) ++accepted[static_cast<std::size_t>(w)];
            }
        });
    }
    for (auto& t : threads) t.join();

    std::uint64_t accepted_total = 0;
    for (const auto a : accepted) accepted_total += a;
    EXPECT_EQ(log.published(), accepted_total);
    EXPECT_EQ(log.published() + log.suppressed(),
              static_cast<std::uint64_t>(writers) * per_writer);
    EXPECT_LE(log.snapshot().size(), 64u);
    for (const auto& ev : log.snapshot()) {
        EXPECT_LT(static_cast<std::size_t>(ev.kind), telemetry::event_kind_count);
    }
}

// --- rate limiter determinism ---

// The same single-threaded schedule of publishes and tick refills must
// make identical accept/suppress decisions on every run: admission is a
// pure function of the virtual clock.
TEST(obs_rate_limit, decisions_are_deterministic) {
    const auto run = [] {
        obs::event_log log{{.capacity = 256, .tokens_per_tick = 2.0, .burst = 4.0}};
        std::string decisions;
        std::uint64_t tick = 0;
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < 7; ++i) {
                decisions += log.publish(make_event(event_kind::frame_dropped,
                                                    event_severity::error))
                                 ? 'A'
                                 : 's';
            }
            log.advance_tick(++tick);
        }
        return decisions;
    };
    const std::string first = run();
    EXPECT_EQ(first, run());
    EXPECT_EQ(first.substr(0, 7), "AAAAsss");  // burst of 4, then suppressed
    // Steady state: 2 tokens refill per tick against 7 attempts.
    EXPECT_EQ(first.substr(first.size() - 7), "AAsssss");
}

TEST(obs_rate_limit, refill_is_capped_at_burst) {
    obs::event_log log{{.capacity = 64, .tokens_per_tick = 100.0, .burst = 3.0}};
    for (std::uint64_t t = 1; t <= 5; ++t) log.advance_tick(t);  // refills clamp
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        if (log.publish(make_event(event_kind::stage_failure, event_severity::warning))) {
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 3);
    EXPECT_EQ(log.last_tick(), 5u);
}

TEST(obs_rate_limit, nonpositive_burst_disables_limiting) {
    obs::event_log log{{.capacity = 16, .tokens_per_tick = 0.0, .burst = 0.0}};
    for (int i = 0; i < 200; ++i) {
        EXPECT_TRUE(log.publish(make_event(event_kind::frame_dropped,
                                           event_severity::error)));
    }
    EXPECT_EQ(log.suppressed(), 0u);
}

TEST(obs_rate_limit, per_kind_buckets_are_independent) {
    obs::event_log log{{.capacity = 64, .tokens_per_tick = 0.0, .burst = 2.0}};
    EXPECT_TRUE(log.publish(make_event(event_kind::frame_dropped, event_severity::error)));
    EXPECT_TRUE(log.publish(make_event(event_kind::frame_dropped, event_severity::error)));
    EXPECT_FALSE(log.publish(make_event(event_kind::frame_dropped, event_severity::error)));
    // A different kind draws from its own bucket.
    EXPECT_TRUE(
        log.publish(make_event(event_kind::link_corruption, event_severity::warning)));
    EXPECT_EQ(log.suppressed_of(event_kind::frame_dropped), 1u);
    EXPECT_EQ(log.suppressed_of(event_kind::link_corruption), 0u);
}

// --- SLO rule grammar ---

TEST(obs_slo, parses_full_rule_and_roundtrips) {
    const auto rules = obs::parse_slo_rules(
        "# fleet drop budget\n"
        "alert drop_ratio if ratio(hawc_dropped/hawc_frames) > 0.05 "
        "window 4/16 for 2 resolve 3 severity critical\n"
        "\n"
        "alert p99_latency if p99(hawc_frame_ms) > 50 severity warning\n");
    ASSERT_EQ(rules.size(), 2u);

    const obs::slo_rule& drop = rules[0];
    EXPECT_EQ(drop.name, "drop_ratio");
    EXPECT_EQ(drop.signal, obs::slo_signal::ratio);
    EXPECT_EQ(drop.metric, "hawc_dropped");
    EXPECT_EQ(drop.denominator, "hawc_frames");
    EXPECT_EQ(drop.cmp, obs::slo_comparison::above);
    EXPECT_DOUBLE_EQ(drop.threshold, 0.05);
    EXPECT_EQ(drop.short_window, 4u);
    EXPECT_EQ(drop.long_window, 16u);
    EXPECT_EQ(drop.fire_after, 2u);
    EXPECT_EQ(drop.resolve_after, 3u);
    EXPECT_EQ(drop.severity, event_severity::critical);

    EXPECT_EQ(rules[1].signal, obs::slo_signal::quantile);
    EXPECT_DOUBLE_EQ(rules[1].quantile, 0.99);

    // Canonical rendering re-parses to the same rule.
    const auto reparsed = obs::parse_slo_rules(obs::to_string(drop));
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(obs::to_string(reparsed[0]), obs::to_string(drop));
}

TEST(obs_slo, parser_rejects_malformed_lines_with_line_numbers) {
    const char* bad[] = {
        "alert x p99(m) > 1",                        // missing 'if'
        "alert x if p99(m) >= 1",                    // bad comparison
        "alert x if p99(m) > fast",                  // non-numeric threshold
        "alert x if p42(m) > 1",                     // unknown signal
        "alert x if ratio(m) > 1",                   // ratio without denominator
        "alert x if value(m) > 1 window 8/4",        // short > long
        "alert x if value(m) > 1 for",               // option missing value
        "alert x if value(m) > 1 severity loud",     // unknown severity
        "alert x@y if value(m) > 1",                 // label-unsafe name
    };
    for (const char* line : bad) {
        EXPECT_THROW(obs::parse_slo_rules(line), error) << line;
    }
    try {
        obs::parse_slo_rules("# fine\nalert ok if value(m) > 1\nbroken");
    } catch (const error& e) {
        EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
    }
}

TEST(obs_slo, default_fleet_rules_parse_and_name_fleet_metrics) {
    const auto rules = fleet::default_fleet_slo_rules();
    ASSERT_EQ(rules.size(), 4u);
    for (const auto& rule : rules) {
        EXPECT_NE(rule.metric.find("hawc_fleet_"), std::string::npos) << rule.name;
    }
}

// --- SLO engine ---

TEST(obs_slo, value_rule_fires_and_resolves_with_hysteresis) {
    telemetry::metrics_registry reg;
    auto& gauge = reg.make_gauge("hawc_fleet_excluded_poles", "");
    obs::event_log log{{.capacity = 32, .burst = 0.0}};
    obs::slo_engine engine{
        reg, reg,
        obs::parse_slo_rules(
            "alert excluded if value(hawc_fleet_excluded_poles) > 0 "
            "for 2 resolve 3 severity error"),
        &log};

    std::uint64_t tick = 0;
    gauge.set(2.0);
    engine.evaluate(++tick);  // breach 1 of 2: not yet firing
    EXPECT_FALSE(engine.find("excluded")->firing);
    engine.evaluate(++tick);  // breach 2 of 2: fires
    ASSERT_TRUE(engine.find("excluded")->firing);
    EXPECT_EQ(engine.find("excluded")->fired_count, 1u);
    EXPECT_FALSE(engine.summary().healthy());
    EXPECT_EQ(engine.summary().worst, event_severity::error);

    gauge.set(0.0);
    engine.evaluate(++tick);
    engine.evaluate(++tick);
    EXPECT_TRUE(engine.find("excluded")->firing);  // 2 clean < resolve 3
    engine.evaluate(++tick);
    EXPECT_FALSE(engine.find("excluded")->firing);
    EXPECT_EQ(engine.find("excluded")->resolved_count, 1u);
    EXPECT_TRUE(engine.summary().healthy());

    // Transitions surfaced as events and metrics.
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, event_kind::alert_firing);
    EXPECT_EQ(events[0].what_view(), "excluded");
    EXPECT_EQ(events[1].kind, event_kind::alert_resolved);
    const auto* fired = reg.find_counter(
        telemetry::labeled_name("hawc_alerts_fired_total", "alert", "excluded"));
    ASSERT_NE(fired, nullptr);
    EXPECT_EQ(fired->value(), 1u);
    const auto* firing_gauge = reg.find_gauge(
        telemetry::labeled_name("hawc_alert_firing", "alert", "excluded"));
    ASSERT_NE(firing_gauge, nullptr);
    EXPECT_DOUBLE_EQ(firing_gauge->value(), 0.0);
}

TEST(obs_slo, ratio_rule_requires_both_burn_windows) {
    telemetry::metrics_registry reg;
    auto& dropped = reg.make_counter("drops", "");
    auto& frames = reg.make_counter("frames", "");
    obs::slo_engine engine{
        reg, reg,
        obs::parse_slo_rules("alert burn if ratio(drops/frames) > 0.5 window 2/6")};

    std::uint64_t tick = 0;
    // Warm-up: clean traffic long enough to fill the long window.
    for (int i = 0; i < 8; ++i) {
        frames.add(10);
        engine.evaluate(++tick);
    }
    EXPECT_FALSE(engine.find("burn")->firing);

    // A short spike breaches the 2-eval window but not the 6-eval one.
    dropped.add(15);
    frames.add(10);
    engine.evaluate(++tick);
    EXPECT_TRUE(engine.find("burn")->last_value > 0.5);  // short burn high
    EXPECT_FALSE(engine.find("burn")->firing);           // long window vetoes

    // Sustained drops breach both windows.
    for (int i = 0; i < 6; ++i) {
        dropped.add(9);
        frames.add(10);
        engine.evaluate(++tick);
    }
    EXPECT_TRUE(engine.find("burn")->firing);
}

TEST(obs_slo, rate_rule_warms_up_before_firing) {
    telemetry::metrics_registry reg;
    auto& quarantines = reg.make_counter("q", "");
    obs::slo_engine engine{reg, reg,
                           obs::parse_slo_rules("alert q if rate(q) > 0.5 window 2/4")};
    std::uint64_t tick = 0;
    quarantines.add(100);  // huge pre-existing total
    engine.evaluate(++tick);
    EXPECT_FALSE(engine.find("q")->firing);  // one sample: no delta yet

    for (int i = 0; i < 5; ++i) {
        quarantines.add(2);  // 2 per eval > 0.5
        engine.evaluate(++tick);
    }
    EXPECT_TRUE(engine.find("q")->firing);
    EXPECT_DOUBLE_EQ(engine.find("q")->last_value, 2.0);
}

TEST(obs_slo, quantile_and_missing_metric_rules) {
    telemetry::metrics_registry reg;
    auto& hist = reg.make_histogram("lat_ms", {1.0, 5.0, 25.0, 100.0}, "");
    obs::slo_engine engine{
        reg, reg,
        obs::parse_slo_rules("alert slow if p99(lat_ms) > 20\n"
                             "alert ghost if value(no_such_metric) > 0")};
    std::uint64_t tick = 0;
    engine.evaluate(++tick);  // empty histogram: no breach
    EXPECT_FALSE(engine.find("slow")->firing);

    for (int i = 0; i < 100; ++i) hist.record(80.0);
    engine.evaluate(++tick);
    EXPECT_TRUE(engine.find("slow")->firing);
    // A rule over an absent metric never fires (and never crashes).
    EXPECT_FALSE(engine.find("ghost")->firing);
    EXPECT_EQ(engine.evaluations(), 2u);
}

TEST(obs_slo, below_comparison_and_render) {
    telemetry::metrics_registry reg;
    auto& gauge = reg.make_gauge("included", "");
    obs::slo_engine engine{
        reg, reg, obs::parse_slo_rules("alert low if value(included) < 3 severity info")};
    gauge.set(1.0);
    engine.evaluate(1);
    EXPECT_TRUE(engine.find("low")->firing);
    const obs::health_summary sum = engine.summary();
    EXPECT_EQ(sum.render(), "1/1 firing (worst info): low");
    gauge.set(5.0);
    engine.evaluate(2);
    EXPECT_EQ(engine.summary().render(), "healthy (1 rules)");
}

// --- build info ---

TEST(obs_build_info, registers_constant_gauge_with_identity_labels) {
    telemetry::metrics_registry reg;
    obs::event_log log{{.capacity = 8, .burst = 0.0}};
    obs::register_build_info(reg, &log);

    const obs::build_info info = obs::current_build_info();
    EXPECT_FALSE(info.version.empty());
    EXPECT_FALSE(info.compiler.empty());
    EXPECT_FALSE(info.isa.empty());
    EXPECT_FALSE(info.sanitizer.empty());

    const std::string prom = telemetry::to_prometheus(reg);
    EXPECT_NE(prom.find("hawc_build_info{"), std::string::npos);
    EXPECT_NE(prom.find("version=\"" + info.version + "\""), std::string::npos);
    EXPECT_NE(prom.find("compiler=\"" + info.compiler + "\""), std::string::npos);
    EXPECT_NE(prom.find("isa=\"" + info.isa + "\""), std::string::npos);
    EXPECT_NE(prom.find("sanitizer=\"" + info.sanitizer + "\""), std::string::npos);

    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, event_kind::isa_dispatch);
    EXPECT_EQ(events[0].what_view(), info.isa);

    // Idempotent re-registration.
    obs::register_build_info(reg);
}

// --- flight recorder + postmortem bundles ---

TEST(obs_recorder, ring_is_bounded_and_bundle_roundtrips) {
    const extent_classifier classifier;
    frame_supervisor sup{det_config(), classifier, nullptr};
    const replay::frame_corpus corpus = synth_corpus(77, 12);

    obs::flight_recorder rec{{.frame_capacity = 8}, "p0", corpus.base_seed};
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const supervisor_carry before = sup.carry();
        rng random{replay::frame_seed(corpus.base_seed, i)};
        const frame_report report = sup.process(corpus.frames[i].cloud, random);
        rec.record(i, corpus.frames[i].ground_truth, corpus.frames[i].cloud, before,
                   report);
    }
    EXPECT_EQ(rec.frames_recorded(), 12u);
    EXPECT_EQ(rec.ring_size(), 8u);

    ASSERT_TRUE(rec.trigger_dump(obs::dump_trigger::manual, 99));
    auto dumps = rec.take_dumps();
    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_EQ(rec.pending_dumps(), 0u);
    const obs::postmortem_bundle& bundle = dumps[0];
    EXPECT_EQ(bundle.pole_id, "p0");
    EXPECT_EQ(bundle.trigger, obs::dump_trigger::manual);
    EXPECT_EQ(bundle.tick, 99u);
    ASSERT_EQ(bundle.frames.size(), 8u);
    EXPECT_EQ(bundle.frames.front().frame_index, 4u);  // oldest retained

    std::stringstream stream;
    obs::save_postmortem(stream, bundle);
    const obs::postmortem_bundle loaded = obs::load_postmortem(stream);
    EXPECT_EQ(loaded, bundle);
}

TEST(obs_recorder, corrupted_bundle_is_rejected) {
    obs::flight_recorder rec{{.frame_capacity = 4}, "p1", 5};
    obs::postmortem_bundle bundle;
    bundle.pole_id = "p1";
    bundle.base_seed = 5;
    obs::recorded_frame frame;
    frame.frame_index = 3;
    frame.record.cloud.push_back({20.0, 0.0, -1.5});
    bundle.frames.push_back(frame);
    bundle.events_jsonl = "{\"kind\":\"frame_dropped\"}\n";

    std::stringstream good;
    obs::save_postmortem(good, bundle);
    std::string bytes = good.str();
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::stringstream bad{bytes};
    EXPECT_THROW(obs::load_postmortem(bad), io_error);

    std::stringstream truncated{good.str().substr(0, good.str().size() - 3)};
    EXPECT_THROW(obs::load_postmortem(truncated), io_error);

    // Versions 1 and 2 laid frames out differently; neither has a reader.
    for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
        std::string stamped = good.str();
        std::memcpy(stamped.data() + 4, &version, sizeof(version));
        std::stringstream old{stamped};
        EXPECT_THROW(obs::load_postmortem(old), io_error) << "version " << version;
    }

    // Only manual (0) and quarantine (1) are triggers: a well-formed,
    // correctly checksummed bundle carrying byte 2 is rejected.
    obs::postmortem_bundle retired = bundle;
    retired.trigger = static_cast<obs::dump_trigger>(2);
    std::stringstream storm;
    obs::save_postmortem(storm, retired);
    try {
        obs::load_postmortem(storm);
        ADD_FAILURE() << "trigger byte 2 loaded";
    } catch (const io_error& e) {
        EXPECT_NE(std::string{e.what()}.find("unknown dump trigger"), std::string::npos)
            << e.what();
    }
}

TEST(obs_recorder, pending_dump_cap_drops_excess) {
    obs::flight_recorder rec{{.frame_capacity = 2}, "p2", 9};
    EXPECT_FALSE(rec.trigger_dump(obs::dump_trigger::manual, 1));  // empty ring

    frame_report report;
    rec.record(0, 0, point_cloud{}, {}, report);
    EXPECT_TRUE(rec.trigger_dump(obs::dump_trigger::manual, 2));
    EXPECT_TRUE(rec.trigger_dump(obs::dump_trigger::manual, 3));
    EXPECT_FALSE(rec.trigger_dump(obs::dump_trigger::manual, 4));  // cap hit
    EXPECT_EQ(rec.dumps_produced(), 2u);
    EXPECT_EQ(rec.dumps_dropped(), 1u);
}

// The core black-box property: a recorded window replays bit-exactly
// through the standard replay driver, including a window whose carry was
// mid-ladder (stale counts being served) when recording began.
TEST(obs_recorder, postmortem_replays_bit_exact_mid_ladder) {
    const extent_classifier classifier;
    supervisor_config cfg = det_config();
    cfg.max_stale_frames = 3;
    frame_supervisor live{cfg, classifier, nullptr};
    const replay::frame_corpus corpus = synth_corpus(123, 6);

    obs::flight_recorder rec{{.frame_capacity = 4}, "px", corpus.base_seed};
    std::vector<std::pair<std::uint64_t, frame_status>> observed;
    // Interleave good frames and dead (empty -> dropped/stale) frames so
    // the ladder is mid-flight when the retained window starts.
    const std::vector<int> schedule{0, -1, 1, -1, -1, 2, 3, -1, 4};
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const supervisor_carry before = live.carry();
        rng random{replay::frame_seed(corpus.base_seed, i)};
        point_cloud cloud;
        std::uint32_t gt = 0;
        if (schedule[i] >= 0) {
            cloud = corpus.frames[static_cast<std::size_t>(schedule[i])].cloud;
            gt = corpus.frames[static_cast<std::size_t>(schedule[i])].ground_truth;
        }
        const frame_report report = live.process(cloud, random);
        rec.record(i, gt, cloud, before, report);
        observed.emplace_back(report.count, report.status);
    }
    ASSERT_TRUE(rec.trigger_dump(obs::dump_trigger::manual, 1));
    const obs::postmortem_bundle bundle = rec.take_dumps()[0];
    ASSERT_EQ(bundle.frames.size(), 4u);

    frame_supervisor fresh{cfg, classifier, nullptr};
    const obs::postmortem_replay_result replayed = obs::replay_postmortem(bundle, fresh);
    EXPECT_TRUE(replayed.bit_exact);
    EXPECT_EQ(replayed.matches, 4u);
    EXPECT_TRUE(replayed.divergent.empty());

    // Tampered outcomes are detected as divergence.
    obs::postmortem_bundle tampered = bundle;
    tampered.frames[2].count += 1;
    frame_supervisor fresh2{cfg, classifier, nullptr};
    const auto diverged = obs::replay_postmortem(tampered, fresh2);
    EXPECT_FALSE(diverged.bit_exact);
    ASSERT_EQ(diverged.divergent.size(), 1u);
    EXPECT_EQ(diverged.divergent[0], 2u);
}

// --- the full drill: 8-pole fleet, forced quarantine, alert lifecycle ---

TEST(obs_drill, fleet_quarantine_produces_replayable_bundle_and_alert_cycle) {
    const extent_classifier classifier;
    std::vector<replay::frame_corpus> corpora;
    std::vector<fleet::pole_setup> setups;
    fleet::watchdog_config wd;
    wd.max_consecutive_dropped = 3;
    wd.backoff_base_ticks = 4;
    wd.backoff_cap_ticks = 16;
    wd.backoff_jitter_fraction = 0.0;
    wd.probation_recovery_streak = 2;
    for (std::size_t i = 0; i < 8; ++i) {
        corpora.push_back(synth_corpus(1000 + i, 40));
        fleet::pole_setup setup;
        setup.pole_id = "pole-" + std::to_string(i);
        setup.seed = 1000 + i;
        setup.supervisor = det_config();
        setup.supervisor.max_stale_frames = 2;
        setup.watchdog = wd;
        setup.primary = &classifier;
        setups.push_back(std::move(setup));
    }

    fleet::fleet_config cfg;
    cfg.stale_after_ticks = 3;
    cfg.exclude_after_ticks = 6;
    fleet::fleet_manager fleet{cfg, setups};

    obs::event_log log{{.capacity = 512, .tokens_per_tick = 16.0, .burst = 64.0}};
    log.bind_metrics(fleet.metrics());
    fleet.attach_observability(log);
    fleet.enable_flight_recorders({.frame_capacity = 8});
    // Drill-tuned rules (the defaults use hour-scale burn windows; this
    // soak is ~80 ticks): exclusion must fire during the incident and
    // resolve through its hysteresis after recovery.
    fleet.install_slo(obs::parse_slo_rules(
        "alert poles_excluded if value(hawc_fleet_excluded_poles) > 0 "
        "for 2 resolve 4 severity error\n"
        "alert fleet_meltdown if "
        "ratio(hawc_fleet_frames_dropped_total/hawc_fleet_frames_total) > 0.9 "
        "window 4/8 severity critical\n"));
    ASSERT_NE(fleet.slo(), nullptr);

    // Phase 1: healthy traffic everywhere.
    std::size_t frame = 0;
    for (; frame < 6; ++frame) {
        for (std::size_t p = 0; p < 8; ++p) {
            fleet.submit(p, corpus_message(corpora[p], frame));
        }
        fleet.tick();
    }
    EXPECT_TRUE(fleet.fleet_health().healthy());

    // Phase 2: pole 3's sensor dies — empty frames until the watchdog
    // quarantines it and it ages into exclusion; the alert must fire.
    const std::size_t victim = 3;
    bool fired = false;
    for (; frame < 26; ++frame) {
        for (std::size_t p = 0; p < 8; ++p) {
            if (p == victim) {
                fleet::link_message dead;
                dead.frame_index = frame;
                fleet.submit(p, std::move(dead));
            } else {
                fleet.submit(p, corpus_message(corpora[p], frame % corpora[p].size()));
            }
        }
        fleet.tick();
        fired = fired || fleet.slo()->find("poles_excluded")->firing;
    }
    EXPECT_GE(fleet.pole(victim).stats().quarantines, 1u);
    EXPECT_TRUE(fired);
    EXPECT_FALSE(fleet.fleet_health().healthy());

    // The quarantine dumped a postmortem bundle; it replays bit-exactly
    // through the replay driver against a fresh supervisor.
    const auto bundles = fleet.collect_postmortems();
    ASSERT_FALSE(bundles.empty());
    EXPECT_EQ(bundles.front().pole_id, "pole-3");
    EXPECT_EQ(bundles.front().trigger, obs::dump_trigger::quarantine);
    EXPECT_FALSE(bundles.front().events_jsonl.empty());

    const auto path = temp_path("drill_bundle_");
    obs::save_postmortem_file(path, bundles.front());
    const obs::postmortem_bundle reloaded = obs::load_postmortem_file(path);
    std::filesystem::remove(path);
    EXPECT_EQ(reloaded, bundles.front());

    supervisor_config victim_cfg = det_config();
    victim_cfg.max_stale_frames = 2;
    frame_supervisor fresh{victim_cfg, classifier, nullptr};
    const auto replayed = obs::replay_postmortem(reloaded, fresh);
    EXPECT_TRUE(replayed.bit_exact) << replayed.divergent.size() << " divergent frames";

    // Phase 3: the sensor comes back; the pole recovers and the alert
    // resolves through its hysteresis.
    bool resolved = false;
    for (; frame < 80 && !resolved; ++frame) {
        for (std::size_t p = 0; p < 8; ++p) {
            fleet.submit(p, corpus_message(corpora[p], frame % corpora[p].size()));
        }
        fleet.tick();
        const auto* state = fleet.slo()->find("poles_excluded");
        resolved = state->fired_count > 0 && state->resolved_count > 0 && !state->firing;
    }
    EXPECT_TRUE(resolved);
    EXPECT_TRUE(fleet.fleet_health().healthy());

    // The alert can resolve while the victim is still in probation (a
    // probation pole serves fresh counts); keep the traffic flowing until
    // it finishes its recovery streak and goes live.
    for (int extra = 0;
         extra < 60 && fleet.pole(victim).state() != fleet::pole_state::live;
         ++extra, ++frame) {
        for (std::size_t p = 0; p < 8; ++p) {
            fleet.submit(p, corpus_message(corpora[p], frame % corpora[p].size()));
        }
        fleet.tick();
    }
    EXPECT_EQ(fleet.pole(victim).state(), fleet::pole_state::live);

    // The event log tells the whole story: quarantine, restart, alert
    // firing, alert resolved.
    const auto events = log.snapshot();
    const auto has_kind = [&events](event_kind kind) {
        return std::any_of(events.begin(), events.end(),
                           [kind](const event& ev) { return ev.kind == kind; });
    };
    EXPECT_TRUE(has_kind(event_kind::pole_quarantined));
    EXPECT_TRUE(has_kind(event_kind::pole_restarted));
    EXPECT_TRUE(has_kind(event_kind::pole_recovered));
    EXPECT_TRUE(has_kind(event_kind::recorder_dump));
    EXPECT_TRUE(has_kind(event_kind::alert_firing));
    EXPECT_TRUE(has_kind(event_kind::alert_resolved));

    // And the fleet-level rollup metrics saw the incident.
    const auto* quarantines = fleet.metrics().find_counter("hawc_fleet_quarantines_total");
    ASSERT_NE(quarantines, nullptr);
    EXPECT_GE(quarantines->value(), 1u);
}

}  // namespace
}  // namespace hawc
