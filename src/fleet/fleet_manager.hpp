#pragma once

// The fleet runtime: N pole fault domains multiplexed over the global
// thread_pool, one deterministic tick at a time. Each tick the manager
//
//   1. runs every pole's run_tick in parallel — poles touch only their
//      own state, so results are bit-identical for any thread count,
//   2. walks the fleet degradation ladder per pole
//        live        fresh count within stale_after_ticks
//        stale_count last good count within exclude_after_ticks
//        excluded    nothing recent enough to serve
//      mirroring the per-frame ladder inside each supervisor,
//   3. publishes the aggregate + per-pole occupancy through the seqlock
//      board, and mirrors per-pole labeled metrics (`@pole=<id>`) into
//      the fleet registry for the Prometheus/JSON exporters.
//
// Time is the tick counter — no wall clocks and no sleeps anywhere on
// this path (enforced by the sleep-in-fleet lint rule), which is what
// makes chaos soaks replayable bit for bit.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/occupancy.hpp"
#include "fleet/pole_runtime.hpp"
#include "obs/event_log.hpp"
#include "obs/slo.hpp"
#include "telemetry/metrics.hpp"

namespace hawc::fleet {

/// Everything one pole needs. The classifier pointers follow
/// frame_supervisor's lifetime rules (must outlive the fleet); poles run
/// concurrently, so one classifier may serve several of them.
struct pole_setup {
    std::string pole_id;
    /// Frame-stream base seed. Frame i submitted with frame_index i runs
    /// on rng stream replay::frame_seed(seed, i), so a pole whose seed is
    /// its recorded stream's base_seed counts that stream bit-identically
    /// to a solo replay_corpus of it.
    std::uint64_t seed = 1;
    supervisor_config supervisor{};
    link_fault_config link{};
    watchdog_config watchdog{};
    const human_classifier* primary = nullptr;
    const human_classifier* fallback = nullptr;
};

struct fleet_config {
    /// Ladder bounds, in ticks since a pole's last good count: live up
    /// to stale_after_ticks, stale-count up to exclude_after_ticks,
    /// excluded beyond. The published snapshot always satisfies
    /// within_staleness(tick, exclude_after_ticks).
    std::uint64_t stale_after_ticks = 3;
    std::uint64_t exclude_after_ticks = 10;

    /// Buffered frames per pole; overflow sheds the oldest.
    std::size_t max_inbox = 8;
    /// Frames each pole may process per tick.
    std::size_t frames_per_tick = 4;
};

class fleet_manager {
public:
    fleet_manager(const fleet_config& config, const std::vector<pole_setup>& poles);

    fleet_manager(const fleet_manager&) = delete;
    fleet_manager& operator=(const fleet_manager&) = delete;

    /// Post one frame toward pole `pole` (it travels the pole's link).
    void submit(std::size_t pole, link_message msg);

    /// Advance the whole fleet one tick and publish a fresh snapshot.
    void tick();

    std::uint64_t current_tick() const { return tick_; }
    std::size_t pole_count() const { return poles_.size(); }
    pole_runtime& pole(std::size_t i) { return *poles_[i]; }
    const pole_runtime& pole(std::size_t i) const { return *poles_[i]; }

    /// The rung the ladder assigned to pole `i` at the last tick().
    pole_rung rung(std::size_t i) const { return rungs_[i]; }

    const occupancy_board& board() const { return board_; }
    occupancy_snapshot snapshot() const { return board_.read(); }

    const fleet_config& config() const { return config_; }

    telemetry::metrics_registry& metrics() { return metrics_; }
    const telemetry::metrics_registry& metrics() const { return metrics_; }

    /// Route every pole's events into `log` (which must outlive the
    /// fleet) and advance its rate-limiter buckets once per tick.
    void attach_observability(obs::event_log& log);

    /// Arm a black-box flight recorder on every pole. Bundles snapshot
    /// the attached event log (if any) at dump time.
    void enable_flight_recorders(const obs::flight_recorder_config& config);

    /// Install SLO rules evaluated over this fleet's metrics registry
    /// every `period` ticks. Alert transitions flow into the attached
    /// event log; attach_observability first if events are wanted.
    void install_slo(std::vector<obs::slo_rule> rules, std::uint64_t period = 1);

    /// Drain every pole's pending postmortem bundles (single-threaded;
    /// call between ticks).
    std::vector<obs::postmortem_bundle> collect_postmortems();

    /// The SLO rollup, or an empty (healthy, zero-rule) summary when no
    /// rules are installed.
    obs::health_summary fleet_health() const;

    obs::slo_engine* slo() { return slo_ ? &*slo_ : nullptr; }
    const obs::slo_engine* slo() const { return slo_ ? &*slo_ : nullptr; }
    obs::event_log* events() { return event_log_; }

private:
    struct pole_metrics {
        telemetry::counter* frames = nullptr;
        telemetry::counter* restarts = nullptr;
        telemetry::counter* quarantines = nullptr;
        telemetry::counter* checksum_failures = nullptr;
        telemetry::gauge* state = nullptr;
        telemetry::gauge* rung = nullptr;
        telemetry::gauge* count = nullptr;
        // Last published counter values, for delta mirroring.
        std::uint64_t frames_seen = 0;
        std::uint64_t restarts_seen = 0;
        std::uint64_t quarantines_seen = 0;
        std::uint64_t checksums_seen = 0;
    };

    void publish_tick();

    fleet_config config_;
    std::vector<std::unique_ptr<pole_runtime>> poles_;
    std::vector<pole_rung> rungs_;
    occupancy_board board_;
    std::uint64_t tick_ = 0;

    telemetry::metrics_registry metrics_;
    std::vector<pole_metrics> pole_metrics_;
    telemetry::gauge* aggregate_gauge_ = nullptr;
    telemetry::gauge* included_gauge_ = nullptr;
    telemetry::counter* ticks_counter_ = nullptr;
    telemetry::counter* frames_shed_counter_ = nullptr;
    std::uint64_t frames_shed_seen_ = 0;

    // Fleet-level rollups (sums over poles, published as deltas).
    telemetry::counter* fleet_frames_counter_ = nullptr;
    telemetry::counter* fleet_dropped_counter_ = nullptr;
    telemetry::counter* fleet_quarantines_counter_ = nullptr;
    telemetry::gauge* excluded_gauge_ = nullptr;
    telemetry::gauge* max_staleness_gauge_ = nullptr;
    std::uint64_t fleet_frames_seen_ = 0;
    std::uint64_t fleet_dropped_seen_ = 0;
    std::uint64_t fleet_quarantines_seen_ = 0;

    obs::event_log* event_log_ = nullptr;
    std::optional<obs::slo_engine> slo_;
    std::uint64_t slo_period_ = 1;
};

/// A starter rule set for the metrics every fleet_manager publishes:
/// occupancy staleness, excluded poles, drop ratio, quarantine rate.
/// Callers append rules for their own service-level metrics.
std::vector<obs::slo_rule> default_fleet_slo_rules();

}  // namespace hawc::fleet
