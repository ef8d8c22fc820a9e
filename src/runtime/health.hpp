#pragma once

// Per-frame health accounting for the streaming runtime. The supervisor
// classifies every frame as ok / degraded / dropped and records which
// rung of the graceful-degradation ladder fired; health_counters is a
// snapshot of those counters, which the bench harness and the
// resilient_service example print directly. Stage latency is not here:
// it lives only in the supervisor registry's histograms (hawc_*_ms),
// served with count/sum/min/max/p50/p95/p99 by the telemetry exporters.

#include <cstdint>
#include <string>

namespace hawc {

/// Terminal disposition of one supervised frame. Every frame gets exactly
/// one status, so ok + degraded + dropped always equals total.
enum class frame_status {
    ok,        // full pipeline, no fallback
    degraded,  // a fallback rung fired but a genuine count was produced
    dropped,   // unrecoverable; the count (if any) is a stale carry-forward
};

/// Rungs of the graceful-degradation ladder, mildest first.
enum class fallback_rung {
    fixed_eps,    // adaptive eps degenerate/over budget -> fixed-eps DBSCAN
    float_model,  // quantized classifier faulted -> fp32 model per cluster
    stale_count,  // unrecoverable frame -> bounded carry-forward of last count
};

const char* to_string(frame_status status);
const char* to_string(fallback_rung rung);

/// Aggregate counters across the supervisor's lifetime (or since the last
/// reset). Plain struct so harnesses can diff snapshots.
struct health_counters {
    /// Monotonic restart epoch: bumped every time the supervisor's health
    /// is reset (watchdog restart, operator reset). Snapshots taken around
    /// a restart order by (epoch, frames_total), so a consumer polling a
    /// supervised pole never sees its progress run backwards even though
    /// frames_total itself rolls back to zero.
    std::uint64_t epoch = 0;

    std::uint64_t frames_total = 0;
    std::uint64_t frames_ok = 0;
    std::uint64_t frames_degraded = 0;
    std::uint64_t frames_dropped = 0;

    // Ladder activations.
    std::uint64_t fixed_eps_fallbacks = 0;     // frames clustered at fixed eps
    std::uint64_t float_model_fallbacks = 0;   // per-cluster fp32 rescues
    std::uint64_t stale_counts_served = 0;     // dropped frames answered stale
    std::uint64_t stale_cap_exhausted = 0;     // dropped past the staleness cap

    // Sanitization and watchdog observations.
    std::uint64_t non_finite_points_dropped = 0;
    std::uint64_t duplicate_points_dropped = 0;
    std::uint64_t truncated_frames = 0;            // rejected below min_raw_points
    std::uint64_t classification_truncations = 0;  // cluster loop hit its budget
    std::uint64_t frame_deadline_overruns = 0;

    /// True when every frame carries exactly one status.
    bool accounted() const {
        return frames_ok + frames_degraded + frames_dropped == frames_total;
    }

    /// Multi-line human-readable report.
    std::string summary() const;

    /// Single flat JSON object of the epoch and every counter, as
    /// integers. Machine-readable counterpart of summary();
    /// resilient_service --json emits it.
    std::string to_json() const;
};

/// True when snapshot `later` was taken no earlier than `earlier` on the
/// same supervisor: epoch-major, frames_total-minor. This is the ordering
/// fleet watchdogs and scrapers must use across restarts — comparing
/// frames_total alone goes backwards the moment a restart resets it.
bool progressed(const health_counters& earlier, const health_counters& later);

}  // namespace hawc
