// Tests for the fault-tolerant streaming runtime: the frame supervisor's
// degradation ladder, the sensor fault injector, degenerate inputs, and
// the 10k-frame chaos soak.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/supervisor.hpp"

namespace hawc {
namespace {

// Cheap deterministic classifier so runtime tests don't train a CNN:
// humans are tall-ish, compact clusters.
class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

class throwing_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud&, rng&) const override {
        throw data_integrity_error{"primary classifier fault"};
    }
    std::string name() const override { return "AlwaysThrow"; }
};

// A synthetic pole capture: ground returns across the scan area plus
// person-sized blobs on the walkway. Much cheaper than a full beam-cast
// scan, with the same operative structure (ground at z = -3, people 12-35
// m out, ~120 returns per person).
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

// --- Supervisor happy path ---

TEST(supervisor, clean_frames_stay_ok) {
    const extent_classifier classifier;
    frame_supervisor sup{{}, classifier};
    rng r{11};
    for (int i = 0; i < 20; ++i) {
        const frame_report report = sup.process(synth_frame(r, 1 + i % 3), r);
        EXPECT_EQ(report.status, frame_status::ok) << "frame " << i;
        EXPECT_TRUE(report.failures.empty());
        EXPECT_FALSE(report.used_fixed_eps);
        EXPECT_GE(report.count, 1u);
    }
    EXPECT_EQ(sup.health().frames_ok, 20u);
    EXPECT_EQ(sup.health().frames_total, 20u);
    EXPECT_TRUE(sup.health().accounted());
}

TEST(supervisor, empty_walkway_counts_zero_without_degrading) {
    const extent_classifier classifier;
    frame_supervisor sup{{}, classifier};
    rng r{12};
    const frame_report report = sup.process(synth_frame(r, 0), r);
    EXPECT_EQ(report.status, frame_status::ok);
    EXPECT_EQ(report.count, 0u);
}

// --- Degenerate inputs never escape the supervisor ---

TEST(supervisor, degenerate_inputs_never_throw) {
    const extent_classifier classifier;
    supervisor_config cfg;
    cfg.dedupe_points = false;  // let the identical points reach clustering
    frame_supervisor sup{cfg, classifier};
    rng r{13};

    point_cloud identical;
    for (int i = 0; i < 64; ++i) identical.push_back({20.0, 0.0, -1.5});
    point_cloud single{{{20.0, 0.0, -1.5}}};
    point_cloud poisoned = synth_frame(r, 1);
    poisoned.push_back({std::numeric_limits<double>::quiet_NaN(), 0.0, -1.5});

    const std::vector<const point_cloud*> clouds{&identical, &single, &poisoned};
    for (const point_cloud* cloud : clouds) {
        EXPECT_NO_THROW({
            const frame_report report = sup.process(*cloud, r);
            (void)report;
        });
    }
    EXPECT_NO_THROW(sup.process(point_cloud{}, r));
    EXPECT_TRUE(sup.health().accounted());
}

// --- Rung 1: fixed-eps fallback ---

TEST(supervisor, degenerate_elbow_falls_back_to_fixed_eps) {
    const extent_classifier classifier;
    supervisor_config cfg;
    cfg.dedupe_points = false;  // keep the duplicates that degenerate the elbow
    frame_supervisor sup{cfg, classifier};
    rng r{14};

    point_cloud identical;
    for (int i = 0; i < 64; ++i) identical.push_back({20.0, 0.0, -1.5});
    const frame_report report = sup.process(identical, r);

    EXPECT_TRUE(report.used_fixed_eps);
    EXPECT_EQ(report.status, frame_status::degraded);
    EXPECT_DOUBLE_EQ(report.chosen_eps, cfg.fallback_eps);
    EXPECT_EQ(sup.health().fixed_eps_fallbacks, 1u);
    ASSERT_FALSE(report.failures.empty());
    EXPECT_EQ(report.failures.back().kind, failure_kind::degenerate_elbow);
}

// --- Rung 2: float-model fallback ---

TEST(supervisor, classifier_fault_rescued_by_fallback) {
    const throwing_classifier primary;
    const extent_classifier fallback;
    frame_supervisor sup{{}, primary, &fallback};
    rng r{16};

    const frame_report report = sup.process(synth_frame(r, 2), r);
    EXPECT_EQ(report.status, frame_status::degraded);
    EXPECT_TRUE(report.used_float_fallback);
    EXPECT_GE(report.count, 1u) << "fallback model should still see the people";
    EXPECT_GE(sup.health().float_model_fallbacks, 1u);
}

TEST(supervisor, classifier_fault_without_fallback_drops_frame) {
    const throwing_classifier primary;
    frame_supervisor sup{{}, primary};
    rng r{17};

    const frame_report report = sup.process(synth_frame(r, 2), r);
    EXPECT_EQ(report.status, frame_status::dropped);
    EXPECT_EQ(report.count, 0u);  // nothing to carry forward yet
    EXPECT_EQ(sup.health().frames_dropped, 1u);
}

// --- Rung 3: bounded stale-count carry-forward ---

TEST(supervisor, stale_count_served_with_cap) {
    const extent_classifier classifier;
    supervisor_config cfg;
    cfg.max_stale_frames = 3;
    frame_supervisor sup{cfg, classifier};
    rng r{18};

    const frame_report good = sup.process(synth_frame(r, 2), r);
    ASSERT_EQ(good.status, frame_status::ok);
    ASSERT_GE(good.count, 1u);

    point_cloud dead;  // total sensor outage: nothing arrives
    for (int i = 0; i < 3; ++i) {
        const frame_report stale = sup.process(dead, r);
        EXPECT_EQ(stale.status, frame_status::dropped);
        EXPECT_TRUE(stale.served_stale);
        EXPECT_EQ(stale.count, good.count) << "stale frame " << i;
    }
    const frame_report exhausted = sup.process(dead, r);
    EXPECT_EQ(exhausted.status, frame_status::dropped);
    EXPECT_FALSE(exhausted.served_stale);
    EXPECT_EQ(exhausted.count, 0u);
    EXPECT_EQ(sup.health().stale_counts_served, 3u);
    EXPECT_EQ(sup.health().stale_cap_exhausted, 1u);

    // Recovery resets the staleness budget.
    const frame_report recovered = sup.process(synth_frame(r, 1), r);
    EXPECT_EQ(recovered.status, frame_status::ok);
    const frame_report stale_again = sup.process(dead, r);
    EXPECT_TRUE(stale_again.served_stale);
    EXPECT_EQ(stale_again.count, recovered.count);
}

TEST(supervisor, health_epoch_makes_progress_monotonic_across_restarts) {
    const extent_classifier classifier;
    frame_supervisor sup{{}, classifier};
    rng r{19};

    sup.process(synth_frame(r, 1), r);
    sup.process(synth_frame(r, 2), r);
    const health_counters before = sup.health();
    EXPECT_EQ(before.epoch, 0u);
    EXPECT_EQ(before.frames_total, 2u);

    // A watchdog restart wipes the counters but bumps the epoch, so the
    // (epoch, frames_total) pair never moves backwards.
    sup.restart();
    const health_counters after = sup.health();
    EXPECT_EQ(after.epoch, 1u);
    EXPECT_EQ(after.frames_total, 0u);
    EXPECT_TRUE(progressed(before, after));
    EXPECT_FALSE(progressed(after, before));

    sup.process(synth_frame(r, 1), r);
    const health_counters resumed = sup.health();
    EXPECT_TRUE(progressed(after, resumed));
    EXPECT_TRUE(progressed(resumed, resumed));  // ties are not regressions

    // The restart also wiped the stale-count carry-forward: a dead frame
    // right after restart has nothing stale to serve... once the new
    // epoch's good count exists again, it does.
    frame_supervisor fresh{{}, classifier};
    fresh.process(synth_frame(r, 2), r);
    fresh.restart();
    const frame_report dead = fresh.process(point_cloud{}, r);
    EXPECT_FALSE(dead.served_stale);
    EXPECT_EQ(dead.count, 0u);
    EXPECT_EQ(fresh.health().epoch, 1u);

    // to_json carries the epoch for fleet-side monotonic checks.
    EXPECT_NE(fresh.health().to_json().find("\"epoch\":1"), std::string::npos);
}

// --- Watchdog: classification budget ---

TEST(supervisor, classification_deadline_truncates_cluster_loop) {
    const extent_classifier classifier;
    supervisor_config cfg;
    cfg.classification_deadline_ms = 1e-7;  // expires before the first cluster
    frame_supervisor sup{cfg, classifier};
    rng r{19};

    const frame_report report = sup.process(synth_frame(r, 3), r);
    EXPECT_EQ(report.status, frame_status::degraded);
    EXPECT_GE(sup.health().classification_truncations, 1u);
}

// --- Sanitization paths ---

TEST(supervisor, non_finite_points_degrade_but_still_count) {
    const extent_classifier classifier;
    frame_supervisor sup{{}, classifier};
    rng r{20};

    point_cloud frame = synth_frame(r, 2);
    const std::size_t clean_size = frame.size();
    for (int i = 0; i < 25; ++i) {
        frame.push_back({std::numeric_limits<double>::quiet_NaN(), 0.0,
                         std::numeric_limits<double>::infinity()});
    }
    const frame_report report = sup.process(frame, r);
    EXPECT_EQ(report.status, frame_status::degraded);
    EXPECT_GE(report.count, 1u);
    EXPECT_EQ(sup.health().non_finite_points_dropped, frame.size() - clean_size);
}

TEST(supervisor, duplicate_flood_detected_and_deduped) {
    const extent_classifier classifier;
    frame_supervisor sup{{}, classifier};
    rng base{21};
    point_cloud frame = synth_frame(base, 1);
    // A stuck beam re-reports one in-ROI return many times.
    const vec3 stuck{20.0, 0.5, -1.8};
    for (int i = 0; i < 300; ++i) frame.push_back(stuck);

    const frame_report report = sup.process(frame, base);
    EXPECT_EQ(report.status, frame_status::degraded);
    EXPECT_GE(sup.health().duplicate_points_dropped, 299u);
    ASSERT_FALSE(report.failures.empty());
    EXPECT_EQ(report.failures.front().kind, failure_kind::duplicate_points);
}

TEST(supervisor, below_ground_returns_flag_implausible_geometry) {
    const extent_classifier classifier;
    frame_supervisor sup{{}, classifier};
    rng r{22};
    point_cloud frame = synth_frame(r, 1);
    for (int i = 0; i < 40; ++i) {
        frame.push_back({r.uniform(12.0, 35.0), r.uniform(-2.0, 2.0), -4.5});
    }
    const frame_report report = sup.process(frame, r);
    EXPECT_EQ(report.status, frame_status::degraded);
    ASSERT_FALSE(report.failures.empty());
    EXPECT_EQ(report.failures.front().kind, failure_kind::implausible_geometry);
}

// --- Fault injector ---

TEST(fault_injection, each_kind_has_its_signature) {
    rng r{23};
    rng frame_rng{24};
    const point_cloud clean = synth_frame(frame_rng, 2);
    fault_injector injector;

    const point_cloud dropped = injector.apply(fault_kind::beam_dropout, clean, r);
    EXPECT_LT(dropped.size(), clean.size());

    const point_cloud jittered = injector.apply(fault_kind::range_jitter, clean, r);
    ASSERT_EQ(jittered.size(), clean.size());
    std::size_t moved = 0;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        if (jittered[i].distance_to(clean[i]) > 1e-12) ++moved;
    }
    EXPECT_GT(moved, clean.size() / 2);

    const point_cloud poisoned = injector.apply(fault_kind::non_finite, clean, r);
    std::size_t non_finite = 0;
    for (const auto& p : poisoned) {
        if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) ++non_finite;
    }
    EXPECT_GT(non_finite, 0u);

    const point_cloud truncated = injector.apply(fault_kind::truncated_frame, clean, r);
    EXPECT_LE(truncated.size(), clean.size() / 10);

    const point_cloud duplicated = injector.apply(fault_kind::duplicate_points, clean, r);
    EXPECT_GT(duplicated.size(), clean.size());

    for (std::size_t k = 0; k < fault_kind_count; ++k) {
        EXPECT_EQ(injector.injected(static_cast<fault_kind>(k)), 1u);
    }
    EXPECT_EQ(injector.total_injected(), fault_kind_count);
}

TEST(fault_injection, flaky_classifier_throws_at_configured_rate) {
    const extent_classifier inner;
    const flaky_classifier flaky{inner, 0.5};
    rng r{25};
    const point_cloud cluster{{{20.0, 0.0, -2.0}, {20.0, 0.0, -1.0}}};
    std::size_t threw = 0;
    for (int i = 0; i < 200; ++i) {
        try {
            (void)flaky.is_human(cluster, r);
        } catch (const data_integrity_error&) {
            ++threw;
        }
    }
    EXPECT_EQ(threw, flaky.faults_raised());
    EXPECT_GT(threw, 50u);
    EXPECT_LT(threw, 150u);
}

// --- Chaos soak: 10k fault-injected frames, fixed seed ---
//
// Asserts the headline robustness contract: zero exceptions escape the
// supervisor, every frame is accounted ok/degraded/dropped, every
// degradation rung fires, and every fault kind provokes at least one
// recorded ladder reaction.

TEST(chaos_soak, ten_thousand_injected_frames) {
    const extent_classifier model;
    // Primary occasionally faults like a corrupted quantized model would;
    // the fp32 stand-in rescues those clusters.
    const flaky_classifier primary{model, 0.02};

    supervisor_config cfg;
    // Chaos posture: tight eps ceiling so noise-flooded frames pin the
    // elbow and exercise the fixed-eps rung.
    cfg.capture.clustering.max_eps = 0.8;
    cfg.max_stale_frames = 4;
    frame_supervisor sup{cfg, primary, &model};

    fault_injection_config fcfg;
    fault_injector injector{fcfg};

    rng scene_rng{31};
    rng fault_rng{32};
    rng pipeline_rng{33};

    constexpr std::size_t frames = 10000;
    std::array<std::uint64_t, fault_kind_count> fault_frames{};
    std::array<std::uint64_t, fault_kind_count> ladder_reactions{};
    std::uint64_t clean_frames = 0;
    std::uint64_t clean_not_ok = 0;
    std::uint64_t escaped_exceptions = 0;

    for (std::size_t i = 0; i < frames; ++i) {
        const point_cloud base = synth_frame(scene_rng, scene_rng.uniform_index(5));
        const bool inject = (i % 2) == 1;
        const auto kind = static_cast<fault_kind>((i / 2) % fault_kind_count);
        const point_cloud frame = inject ? injector.apply(kind, base, fault_rng) : base;

        frame_report report;
        try {
            report = sup.process(frame, pipeline_rng);
        } catch (...) {
            ++escaped_exceptions;
            continue;
        }

        if (inject) {
            ++fault_frames[static_cast<std::size_t>(kind)];
            if (report.status != frame_status::ok || !report.failures.empty()) {
                ++ladder_reactions[static_cast<std::size_t>(kind)];
            }
        } else {
            ++clean_frames;
            if (report.status != frame_status::ok) ++clean_not_ok;
        }
    }

    EXPECT_EQ(escaped_exceptions, 0u);

    const health_counters& health = sup.health();
    EXPECT_EQ(health.frames_total, frames);
    EXPECT_TRUE(health.accounted())
        << "ok " << health.frames_ok << " + degraded " << health.frames_degraded
        << " + dropped " << health.frames_dropped << " != " << health.frames_total;

    // Every rung of the ladder fired.
    EXPECT_GT(health.fixed_eps_fallbacks, 0u);
    EXPECT_GT(health.float_model_fallbacks, 0u);
    EXPECT_GT(health.stale_counts_served, 0u);

    // Every fault kind provoked at least one recorded reaction.
    for (std::size_t k = 0; k < fault_kind_count; ++k) {
        EXPECT_GT(fault_frames[k], 900u);  // schedule sanity
        EXPECT_GT(ladder_reactions[k], 0u)
            << "no ladder reaction to " << to_string(static_cast<fault_kind>(k));
    }

    // Clean frames overwhelmingly stay on the full-quality path. The flaky
    // primary degrades a few percent of them by design.
    EXPECT_GT(clean_frames, 4900u);
    EXPECT_LT(static_cast<double>(clean_not_ok), 0.2 * static_cast<double>(clean_frames));

    // The counters tell a coherent story for postmortems.
    EXPECT_GT(health.non_finite_points_dropped, 0u);
    EXPECT_GT(health.duplicate_points_dropped, 0u);
    EXPECT_GT(health.truncated_frames, 0u);
    EXPECT_FALSE(health.summary().empty());
}

}  // namespace
}  // namespace hawc
