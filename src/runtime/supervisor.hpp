#pragma once

// The fault-tolerant streaming runtime: a frame supervisor that runs the
// full per-capture pipeline (sanitize -> ingest -> adaptive clustering ->
// classify -> count) as supervised stages with a cooperative steady-clock
// classification budget, and walks a graceful-degradation ladder instead
// of crashing on bad sensor data:
//
//   rung 1  fixed_eps    adaptive-eps elbow degenerate (eps pinned to a
//                        clamp bound) -> fixed-eps DBSCAN
//   rung 2  float_model  primary (int8) classifier throws / fails validation
//                        on a cluster -> fp32 fallback model for that cluster
//   rung 3  stale_count  unrecoverable frame -> serve the last good count,
//                        bounded by a staleness cap, then admit a zero
//
// process() never throws; every frame is accounted ok/degraded/dropped in
// the health counters, and its stage latencies are recorded only in the
// registry's histograms. The watchdog is cooperative (classification polls
// a monotonic deadline between clusters), which bounds latency without
// threads on single-core edge targets; see DESIGN.md "Fault model".

#include <atomic>
#include <cstdint>
#include <vector>

#include "counting/crowd_counter.hpp"
#include "runtime/failure.hpp"
#include "runtime/health.hpp"
#include "telemetry/event.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace hawc {

/// Classifier adapter implementing the float-model rung: try the primary
/// (typically int8), and when it throws on a cluster, retry that cluster
/// on the fallback (typically the fp32 model it was quantized from).
/// Without a fallback the failure propagates to the frame level.
class resilient_classifier final : public human_classifier {
public:
    resilient_classifier(const human_classifier& primary, const human_classifier* fallback)
        : primary_{&primary}, fallback_{fallback} {}

    bool is_human(const point_cloud& cluster, rng& random) const override;
    std::string name() const override;

    std::uint64_t fallback_activations() const { return fallbacks_.load(std::memory_order_relaxed); }

private:
    const human_classifier* primary_;
    const human_classifier* fallback_;
    mutable std::atomic<std::uint64_t> fallbacks_{0};
};

struct supervisor_config {
    capture_config capture{};

    /// Frames with fewer sanitized raw returns than this are rejected as
    /// truncated (a healthy outdoor scan carries thousands of returns,
    /// ground included; almost nothing arriving means the frame is gone).
    std::size_t min_raw_points = 32;

    /// Drop exact-duplicate points after ingest. Stuck beams re-reporting
    /// a return inflate local density, which corrupts both the k-NN elbow
    /// and DBSCAN core counts.
    bool dedupe_points = true;

    /// Geometry plausibility: a pole-mounted sensor cannot see through
    /// the walkway, so returns well below the ground plane mean a range
    /// noise burst (multipath, retro-reflector). Frames where more than
    /// 1% of returns sit deeper than this below ground are flagged
    /// degraded.
    double below_ground_tolerance_m = 0.3;

    /// Cooperative watchdog budget (steady clock), in ms; <= 0 disables.
    /// count_clusters polls it between clusters and stops early once it
    /// expires: the one wall clock that can change a frame's answer.
    double classification_deadline_ms = 500.0;

    /// Fixed-eps rung: DBSCAN radius used when adaptive selection fails.
    /// The Table IV fixed-eps baseline region works well here.
    double fallback_eps = 0.35;

    /// Staleness cap: at most this many consecutive dropped frames are
    /// answered with the last good count before admitting zero. Any
    /// non-dropped frame refills the budget.
    std::size_t max_stale_frames = 5;
};

/// `config` with the classification deadline off, for every run whose
/// result a wall clock must not change: parity replays (a deadline firing
/// on one side only would read as divergence), the paper's accuracy
/// benches and the deterministic examples and tests.
supervisor_config without_deadlines(supervisor_config config);

/// The stale-count rung's carry-forward state: everything process()
/// consults from previous frames when deciding a frame's count and
/// status. A fresh supervisor with this state restored reproduces a
/// recorded frame sequence bit-exactly — the contract the flight
/// recorder's postmortem bundles (src/obs) are built on.
struct supervisor_carry {
    bool has_last_good = false;
    std::uint64_t last_good_count = 0;
    std::uint64_t stale_streak = 0;

    bool operator==(const supervisor_carry&) const = default;
};

/// Outcome of one supervised frame.
struct frame_report {
    frame_status status = frame_status::ok;
    std::size_t count = 0;
    std::size_t cluster_count = 0;

    bool used_fixed_eps = false;
    bool used_float_fallback = false;
    bool served_stale = false;
    double chosen_eps = 0.0;  // the eps DBSCAN actually ran with

    double frame_ms = 0.0;  // wall-clock for the whole frame

    std::vector<failure_event> failures;
};

class frame_supervisor {
public:
    /// `primary` classifies every cluster first; `fallback` (may be null)
    /// is consulted per cluster when the primary throws. Both must
    /// outlive the supervisor.
    frame_supervisor(const supervisor_config& config, const human_classifier& primary,
                     const human_classifier* fallback = nullptr);

    /// Process one raw capture. Never throws: unrecoverable frames come
    /// back dropped, with the stale-count rung applied.
    frame_report process(const point_cloud& raw, rng& random);

    /// Health counters as a snapshot struct, read from the registry
    /// below. Stage latency is not in it: scrape the registry's
    /// histograms for that. Every reset/restart bumps the snapshot's
    /// monotonic epoch, so consumers ordering by (epoch, frames_total)
    /// never observe progress running backwards across a restart (see
    /// health.hpp::progressed).
    health_counters health() const;
    void reset_health();

    /// Watchdog restart: reset_health() plus the carry-forward state (the
    /// stale-count rung's last good count and its stale streak). A
    /// restarted supervisor serves no stale data from before its restart.
    void restart();

    /// The supervisor's metrics registry: the health counters plus the
    /// per-stage latency histograms (hawc_frame_ms, hawc_ingest_ms,
    /// hawc_clustering_ms, hawc_classification_ms, hawc_eps_selection_ms)
    /// and the stage-level counters recorded by dbscan / eps selection /
    /// classification through the telemetry handle. Scrape it with
    /// telemetry::to_prometheus / telemetry::to_json.
    telemetry::metrics_registry& metrics() { return metrics_; }
    const telemetry::metrics_registry& metrics() const { return metrics_; }

    /// Install a span sink (nullptr disables tracing). Every processed
    /// frame then records the span tree
    ///   frame -> { ingest, eps_selection, dbscan, classify -> classify_cluster* }
    /// with the frame span's code carrying the terminal frame_status.
    void set_trace_sink(telemetry::trace_sink* sink) { tracer_.set_sink(sink); }

    /// Install a structured-event sink (nullptr disables; the default).
    /// The supervisor then emits stage_failure / frame_dropped /
    /// ladder_* events as it walks the degradation ladder. Clean frames
    /// emit nothing, so with a sink installed the clean-frame cost is a
    /// handful of null checks (the obs overhead gate pins this ≤ 2%).
    void set_event_sink(telemetry::event_sink* sink) { events_ = sink; }
    telemetry::event_sink* event_sink() const { return events_; }

    /// Snapshot / restore the stale-count rung's carry state. restore
    /// does not touch metrics or the health epoch — it only arms the
    /// ladder the way a recorded supervisor's was armed, which is what
    /// postmortem replay needs.
    supervisor_carry carry() const;
    void restore_carry(const supervisor_carry& carry);

    const supervisor_config& config() const { return config_; }

    /// The counting stage (for multiplicity configuration etc.).
    crowd_counter& counter() { return counter_; }

private:
    void run_stages(const point_cloud& raw, rng& random, frame_report& report,
                    telemetry::span_id frame_span);
    void degrade(frame_report& report, pipeline_stage stage, failure_kind kind,
                 std::string detail) const;
    void emit(telemetry::event ev) const;

    /// Pointers into metrics_ for the hot path (registered once in the
    /// constructor, so recording never takes the registry lock).
    struct runtime_counters {
        telemetry::counter* frames_total = nullptr;
        telemetry::counter* frames_ok = nullptr;
        telemetry::counter* frames_degraded = nullptr;
        telemetry::counter* frames_dropped = nullptr;
        telemetry::counter* fixed_eps_fallbacks = nullptr;
        telemetry::counter* float_model_fallbacks = nullptr;
        telemetry::counter* stale_counts_served = nullptr;
        telemetry::counter* stale_cap_exhausted = nullptr;
        telemetry::counter* non_finite_points = nullptr;
        telemetry::counter* duplicate_points = nullptr;
        telemetry::counter* truncated_frames = nullptr;
        telemetry::counter* classification_truncations = nullptr;
        telemetry::latency_histogram* ingest_ms = nullptr;
        telemetry::latency_histogram* clustering_ms = nullptr;
        telemetry::latency_histogram* classification_ms = nullptr;
        telemetry::latency_histogram* frame_ms = nullptr;
        telemetry::latency_histogram* eps_selection_ms = nullptr;
    };

    supervisor_config config_;
    resilient_classifier classifier_;
    crowd_counter counter_;

    telemetry::metrics_registry metrics_;
    runtime_counters rc_{};
    telemetry::tracer tracer_;
    telemetry::event_sink* events_ = nullptr;
    std::uint64_t frame_seq_ = 0;

    std::uint64_t health_epoch_ = 0;

    std::size_t last_good_count_ = 0;
    std::size_t stale_streak_ = 0;
    bool has_last_good_ = false;
};

}  // namespace hawc
