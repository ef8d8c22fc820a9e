#include "runtime/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "clustering/adaptive_eps.hpp"
#include "clustering/dbscan.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernels/kernels.hpp"
#include "pointcloud/neighbor_grid.hpp"
#include "preprocess/ingest.hpp"

namespace hawc {

bool resilient_classifier::is_human(const point_cloud& cluster, rng& random) const {
    try {
        return primary_->is_human(cluster, random);
    } catch (const std::exception&) {
        if (!fallback_) throw;
        ++fallbacks_;
        return fallback_->is_human(cluster, random);
    }
}

std::string resilient_classifier::name() const {
    std::string n = primary_->name();
    if (fallback_) {
        // Two appends, not `n += "+" + name()`: GCC 12's -Wrestrict emits a
        // false positive on operator+(const char*, std::string&&) at -O3.
        n += '+';
        n += fallback_->name();
    }
    return n;
}

supervisor_config without_deadlines(supervisor_config config) {
    config.classification_deadline_ms = 0.0;
    return config;
}

frame_supervisor::frame_supervisor(const supervisor_config& config,
                                   const human_classifier& primary,
                                   const human_classifier* fallback)
    : config_{config}, classifier_{primary, fallback}, counter_{config.capture, classifier_} {
    // Resolve the process-wide kernel tier and pool now: a bad
    // HAWC_KERNEL_ISA or HAWC_THREADS then fails construction instead of
    // dropping every frame with the same error.
    kernels::active_kernels();
    global_pool();
    // Preallocate every hot-path metric once; process() then only touches
    // lock-free atomics through these pointers.
    rc_.frames_total = &metrics_.make_counter("hawc_frames_total", "Supervised frames processed");
    rc_.frames_ok = &metrics_.make_counter("hawc_frames_ok_total", "Frames with no fallback");
    rc_.frames_degraded =
        &metrics_.make_counter("hawc_frames_degraded_total", "Frames a fallback rung rescued");
    rc_.frames_dropped =
        &metrics_.make_counter("hawc_frames_dropped_total", "Unrecoverable frames");
    rc_.fixed_eps_fallbacks = &metrics_.make_counter("hawc_fallback_fixed_eps_total",
                                                     "Frames clustered at the fixed eps");
    rc_.float_model_fallbacks = &metrics_.make_counter("hawc_fallback_float_model_total",
                                                       "Per-cluster fp32 rescues");
    rc_.stale_counts_served = &metrics_.make_counter("hawc_stale_counts_served_total",
                                                     "Dropped frames answered with a stale count");
    rc_.stale_cap_exhausted = &metrics_.make_counter("hawc_stale_cap_exhausted_total",
                                                     "Dropped frames past the staleness cap");
    rc_.non_finite_points = &metrics_.make_counter("hawc_points_non_finite_dropped_total",
                                                   "NaN/Inf returns dropped during sanitize");
    rc_.duplicate_points = &metrics_.make_counter("hawc_points_duplicate_dropped_total",
                                                  "Exact-duplicate returns dropped");
    rc_.truncated_frames = &metrics_.make_counter("hawc_frames_truncated_total",
                                                  "Frames rejected below min_raw_points");
    rc_.classification_truncations = &metrics_.make_counter(
        "hawc_classification_truncations_total", "Cluster loops cut short by the stage budget");
    const auto bounds = telemetry::latency_histogram::default_latency_bounds_ms();
    rc_.ingest_ms = &metrics_.make_histogram("hawc_ingest_ms", bounds, "Ingest stage latency");
    rc_.clustering_ms =
        &metrics_.make_histogram("hawc_clustering_ms", bounds, "Clustering stage latency");
    rc_.classification_ms = &metrics_.make_histogram("hawc_classification_ms", bounds,
                                                     "Classification stage latency");
    rc_.frame_ms = &metrics_.make_histogram("hawc_frame_ms", bounds, "Whole-frame latency");
    rc_.eps_selection_ms = &metrics_.make_histogram("hawc_eps_selection_ms", bounds,
                                                    "Adaptive eps selection latency");
}

health_counters frame_supervisor::health() const {
    health_counters h;
    h.epoch = health_epoch_;
    h.frames_total = rc_.frames_total->value();
    h.frames_ok = rc_.frames_ok->value();
    h.frames_degraded = rc_.frames_degraded->value();
    h.frames_dropped = rc_.frames_dropped->value();
    h.fixed_eps_fallbacks = rc_.fixed_eps_fallbacks->value();
    h.float_model_fallbacks = rc_.float_model_fallbacks->value();
    h.stale_counts_served = rc_.stale_counts_served->value();
    h.stale_cap_exhausted = rc_.stale_cap_exhausted->value();
    h.non_finite_points_dropped = rc_.non_finite_points->value();
    h.duplicate_points_dropped = rc_.duplicate_points->value();
    h.truncated_frames = rc_.truncated_frames->value();
    h.classification_truncations = rc_.classification_truncations->value();
    return h;
}

void frame_supervisor::reset_health() {
    // The epoch bump is what keeps (epoch, frames_total) monotonic for
    // snapshot readers while frames_total itself rolls back to zero.
    ++health_epoch_;
    metrics_.reset();
}

void frame_supervisor::restart() {
    reset_health();
    last_good_count_ = 0;
    stale_streak_ = 0;
    has_last_good_ = false;
}

supervisor_carry frame_supervisor::carry() const {
    supervisor_carry c;
    c.has_last_good = has_last_good_;
    c.last_good_count = last_good_count_;
    c.stale_streak = stale_streak_;
    return c;
}

void frame_supervisor::restore_carry(const supervisor_carry& carry) {
    has_last_good_ = carry.has_last_good;
    last_good_count_ = static_cast<std::size_t>(carry.last_good_count);
    stale_streak_ = static_cast<std::size_t>(carry.stale_streak);
}

void frame_supervisor::emit(telemetry::event ev) const {
    if (events_ == nullptr) return;
    ev.frame = frame_seq_;
    events_->publish(ev);
}

void frame_supervisor::degrade(frame_report& report, pipeline_stage stage, failure_kind kind,
                               std::string detail) const {
    if (events_ != nullptr) {
        telemetry::event ev = telemetry::make_event(
            telemetry::event_kind::stage_failure, telemetry::event_severity::warning,
            to_string(kind));
        ev.add_field("stage", static_cast<double>(static_cast<int>(stage)));
        emit(ev);
    }
    report.failures.push_back({stage, kind, std::move(detail)});
    if (report.status == frame_status::ok) report.status = frame_status::degraded;
}

namespace {

/// Duplicates above this fraction of the ingested cloud flag the frame
/// degraded (a handful can be genuine coincidences).
constexpr double duplicate_degrade_fraction = 0.05;

/// Returns deeper than below_ground_tolerance_m under the ground plane
/// above this fraction of the clean cloud flag the frame degraded.
constexpr double below_ground_degrade_fraction = 0.01;

/// Exact-duplicate removal: sort-and-unique on coordinates. O(n log n) on
/// the (already ROI-cropped) ingested cloud, well below clustering cost.
point_cloud dedupe(const point_cloud& cloud) {
    std::vector<vec3> points{cloud.begin(), cloud.end()};
    std::sort(points.begin(), points.end(), [](const vec3& a, const vec3& b) {
        if (a.x != b.x) return a.x < b.x;
        if (a.y != b.y) return a.y < b.y;
        return a.z < b.z;
    });
    points.erase(std::unique(points.begin(), points.end()), points.end());
    return point_cloud{std::move(points)};
}

/// One stage's histogram sample for one frame, recorded when the frame's
/// stages end: the stage's latency, or 0 for a stage the frame never
/// reached (an early return or an exception).
struct stage_sample {
    explicit stage_sample(telemetry::latency_histogram* h) : histogram{h} {}
    stage_sample(const stage_sample&) = delete;
    stage_sample& operator=(const stage_sample&) = delete;
    ~stage_sample() { histogram->record(ms); }

    telemetry::latency_histogram* histogram;
    double ms = 0.0;
};

}  // namespace

void frame_supervisor::run_stages(const point_cloud& raw, rng& random,
                                  frame_report& report,
                                  telemetry::span_id frame_span) {
    // All stage spans nest under the frame span; stage functions called
    // below parent their own spans the same way via telem.under().
    const telemetry_handle telem{&metrics_, &tracer_, frame_span};
    stage_sample ingest_ms{rc_.ingest_ms};
    stage_sample clustering_ms{rc_.clustering_ms};
    stage_sample classification_ms{rc_.classification_ms};
    stopwatch sw;

    // ---- Ingest with fused capture validation ----
    // The validating ingest overload gathers non-finite and
    // below-ground counts inside the crop pass, so frame validation
    // costs no extra sweep of the (large) raw cloud — that is what holds
    // the clean-frame overhead budget.
    telemetry::scoped_span ingest_span{telem, "ingest"};
    const double floor_z =
        config_.capture.walkway.ground_z() - config_.below_ground_tolerance_m;
    ingest_stats stats;
    point_cloud ingested =
        ingest(raw, config_.capture.roi, config_.capture.ground, floor_z, stats);
    const std::size_t clean_size = stats.raw_points - stats.non_finite;
    if (stats.non_finite > 0) {
        rc_.non_finite_points->add(stats.non_finite);
        degrade(report, pipeline_stage::capture, failure_kind::non_finite_input,
                std::to_string(stats.non_finite) + " non-finite points dropped");
    }
    if (clean_size > 0 &&
        static_cast<double>(stats.below_floor) >
            below_ground_degrade_fraction * static_cast<double>(clean_size)) {
        degrade(report, pipeline_stage::capture, failure_kind::implausible_geometry,
                std::to_string(stats.below_floor) + " returns below the ground plane");
    }
    if (clean_size < config_.min_raw_points) {
        rc_.truncated_frames->add(1);
        if (events_ != nullptr) {
            telemetry::event ev = telemetry::make_event(
                telemetry::event_kind::stage_failure, telemetry::event_severity::warning,
                to_string(failure_kind::truncated_frame));
            ev.add_field("stage", static_cast<double>(static_cast<int>(pipeline_stage::capture)));
            ev.add_field("raw_points", static_cast<double>(clean_size));
            emit(ev);
        }
        report.failures.push_back({pipeline_stage::capture, failure_kind::truncated_frame,
                                   std::to_string(clean_size) + " raw points < " +
                                       std::to_string(config_.min_raw_points)});
        report.status = frame_status::dropped;
        ingest_ms.ms = sw.elapsed_ms();
        return;
    }
    if (config_.dedupe_points && !ingested.empty()) {
        const std::size_t before = ingested.size();
        ingested = dedupe(ingested);
        const std::size_t duplicates = before - ingested.size();
        if (duplicates > 0) {
            rc_.duplicate_points->add(duplicates);
            if (static_cast<double>(duplicates) >
                duplicate_degrade_fraction * static_cast<double>(before)) {
                degrade(report, pipeline_stage::ingest, failure_kind::duplicate_points,
                        std::to_string(duplicates) + " of " + std::to_string(before) +
                            " ingested points were duplicates");
            }
        }
    }
    ingest_span.finish();
    ingest_ms.ms = sw.elapsed_ms();

    // A near-empty walkway is a legitimate zero, not a degradation.
    const std::size_t cluster_floor = std::max(config_.capture.min_cluster_points,
                                               config_.capture.clustering.min_points);
    if (ingested.size() < cluster_floor) return;

    // ---- Clustering: adaptive eps with the fixed-eps fallback rung ----
    // Eps selection and DBSCAN share one grid over the metric-scaled
    // cloud; both operate in the same metric space, so the fixed-eps rung
    // reuses it too (fallback_eps is expressed in metric space, exactly
    // as the dbscan() convenience entry point treats config.eps).
    sw.reset();
    const adaptive_eps_config& ccfg = config_.capture.clustering;
    const neighbor_grid grid{ccfg.metric.scale(ingested)};
    stopwatch eps_sw;
    const double eps = adaptive_epsilon(grid, ccfg, telem);
    rc_.eps_selection_ms->record(eps_sw.elapsed_ms());
    // adaptive_epsilon clamps into [min_eps, max_eps]; landing on a bound
    // means the elbow was degenerate (all-noise or duplicate-flooded
    // curve), not a genuine density estimate.
    const bool use_fixed = !std::isfinite(eps) || eps <= ccfg.min_eps || eps >= ccfg.max_eps;
    report.chosen_eps = use_fixed ? config_.fallback_eps : eps;

    const std::vector<point_cloud> clusters =
        dbscan(grid, report.chosen_eps, ccfg.min_points, telem)
            .extract_clusters(ingested);
    clustering_ms.ms = sw.elapsed_ms();
    if (use_fixed) {
        report.used_fixed_eps = true;
        rc_.fixed_eps_fallbacks->add(1);
        degrade(report, pipeline_stage::clustering, failure_kind::degenerate_elbow,
                "eps pinned at " + std::to_string(eps));
        telemetry::event ev = telemetry::make_event(telemetry::event_kind::ladder_fixed_eps,
                                                    telemetry::event_severity::info,
                                                    to_string(failure_kind::degenerate_elbow));
        ev.add_field("eps", report.chosen_eps);
        emit(ev);
    }

    // ---- Classification: per-cluster float-model rung + deadline ----
    sw.reset();
    const std::uint64_t fallbacks_before = classifier_.fallback_activations();
    deadline budget;
    if (config_.classification_deadline_ms > 0.0) {
        budget = deadline::after_ms(config_.classification_deadline_ms);
    }
    telemetry::scoped_span classify_span{telem, "classify"};
    const cluster_count_result counted =
        counter_.count_clusters(clusters, random, budget, telem.under(classify_span.id()));
    classify_span.finish();
    classification_ms.ms = sw.elapsed_ms();
    report.count = counted.count;
    report.cluster_count = counted.examined;
    if (counted.truncated) {
        rc_.classification_truncations->add(1);
        degrade(report, pipeline_stage::classification, failure_kind::stage_deadline,
                "classified " + std::to_string(counted.examined) + " clusters before the "
                "budget expired");
    }
    const std::uint64_t rescues = classifier_.fallback_activations() - fallbacks_before;
    if (rescues > 0) {
        report.used_float_fallback = true;
        rc_.float_model_fallbacks->add(rescues);
        degrade(report, pipeline_stage::classification, failure_kind::classifier_fault,
                std::to_string(rescues) + " cluster(s) rescued by the fallback model");
        telemetry::event ev = telemetry::make_event(telemetry::event_kind::ladder_float_model,
                                                    telemetry::event_severity::info,
                                                    "fp32 fallback rescued clusters");
        ev.add_field("rescues", static_cast<double>(rescues));
        emit(ev);
    }
}

frame_report frame_supervisor::process(const point_cloud& raw, rng& random) {
    frame_report report;
    stopwatch frame_sw;
    tracer_.begin_frame(++frame_seq_);
    telemetry::scoped_span frame_span{&tracer_, "frame"};
    try {
        run_stages(raw, random, report, frame_span.id());
    } catch (const std::exception& e) {
        report.failures.push_back(
            {pipeline_stage::frame, failure_kind::stage_exception, e.what()});
        report.status = frame_status::dropped;
    } catch (...) {
        report.failures.push_back(
            {pipeline_stage::frame, failure_kind::stage_exception, "unknown exception"});
        report.status = frame_status::dropped;
    }
    report.frame_ms = frame_sw.elapsed_ms();

    // ---- Stale-count rung: bounded carry-forward for dropped frames ----
    if (report.status == frame_status::dropped) {
        if (has_last_good_ && stale_streak_ < config_.max_stale_frames) {
            ++stale_streak_;
            report.count = last_good_count_;
            report.served_stale = true;
            rc_.stale_counts_served->add(1);
            if (events_ != nullptr) {
                telemetry::event ev = telemetry::make_event(
                    telemetry::event_kind::ladder_stale_count,
                    telemetry::event_severity::warning, "serving last good count");
                ev.add_field("count", static_cast<double>(report.count));
                ev.add_field("stale_streak", static_cast<double>(stale_streak_));
                emit(ev);
            }
        } else {
            report.count = 0;
            if (has_last_good_) {
                rc_.stale_cap_exhausted->add(1);
                emit(telemetry::make_event(telemetry::event_kind::stale_cap_exhausted,
                                           telemetry::event_severity::error,
                                           "staleness budget spent, serving zero"));
            }
        }
        if (events_ != nullptr) {
            telemetry::event ev = telemetry::make_event(telemetry::event_kind::frame_dropped,
                                                        telemetry::event_severity::error,
                                                        "frame unrecoverable");
            ev.add_field("count", static_cast<double>(report.count));
            emit(ev);
        }
    } else {
        last_good_count_ = report.count;
        has_last_good_ = true;
        stale_streak_ = 0;
    }

    // ---- Health accounting ----
    rc_.frames_total->add(1);
    switch (report.status) {
        case frame_status::ok: rc_.frames_ok->add(1); break;
        case frame_status::degraded: rc_.frames_degraded->add(1); break;
        case frame_status::dropped: rc_.frames_dropped->add(1); break;
    }
    rc_.frame_ms->record(report.frame_ms);

    // The frame span closes last, carrying the terminal status so trace
    // consumers can color ok/degraded/dropped frames without joining on
    // the report stream.
    frame_span.set_code(static_cast<std::uint8_t>(report.status));
    return report;
}

}  // namespace hawc
