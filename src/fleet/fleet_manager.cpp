#include "fleet/fleet_manager.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace hawc::fleet {

namespace {

using telemetry::labeled_name;

}  // namespace

fleet_manager::fleet_manager(const fleet_config& config,
                             const std::vector<pole_setup>& poles)
    : config_{config},
      rungs_(poles.size(), pole_rung::excluded),
      board_{std::max<std::size_t>(1, poles.size())} {
    HAWC_REQUIRE(!poles.empty(), "a fleet needs at least one pole");
    poles_.reserve(poles.size());
    pole_metrics_.reserve(poles.size());
    for (const auto& setup : poles) {
        HAWC_REQUIRE(setup.primary != nullptr, "pole needs a primary classifier");
        poles_.push_back(std::make_unique<pole_runtime>(
            setup.pole_id, setup.seed, setup.supervisor, setup.link, setup.watchdog,
            *setup.primary, setup.fallback));

        pole_metrics pm;
        const std::string& id = setup.pole_id;
        pm.frames = &metrics_.make_counter(
            labeled_name("hawc_pole_frames_total", "pole", id),
            "Frames processed by this pole's supervisor");
        pm.restarts = &metrics_.make_counter(
            labeled_name("hawc_pole_restarts_total", "pole", id),
            "Watchdog restarts of this pole");
        pm.quarantines = &metrics_.make_counter(
            labeled_name("hawc_pole_quarantines_total", "pole", id),
            "Times this pole was quarantined");
        pm.checksum_failures = &metrics_.make_counter(
            labeled_name("hawc_pole_checksum_failures_total", "pole", id),
            "Corrupted link messages rejected by this pole");
        pm.state = &metrics_.make_gauge(
            labeled_name("hawc_pole_state", "pole", id),
            "0 live, 1 probation, 2 quarantined");
        pm.rung = &metrics_.make_gauge(
            labeled_name("hawc_pole_rung", "pole", id),
            "Fleet ladder rung: 0 live, 1 stale_count, 2 excluded");
        pm.count = &metrics_.make_gauge(
            labeled_name("hawc_pole_count", "pole", id),
            "Latest good people count from this pole");
        pole_metrics_.push_back(pm);
    }

    aggregate_gauge_ = &metrics_.make_gauge("hawc_fleet_aggregate_count",
                                            "People count summed over included poles");
    included_gauge_ = &metrics_.make_gauge("hawc_fleet_included_poles",
                                           "Poles contributing to the aggregate");
    ticks_counter_ = &metrics_.make_counter("hawc_fleet_ticks_total", "Fleet ticks run");
    frames_shed_counter_ = &metrics_.make_counter(
        "hawc_fleet_frames_shed_total", "Frames evicted from pole inboxes on overflow");

    fleet_frames_counter_ = &metrics_.make_counter(
        "hawc_fleet_frames_total", "Frames processed across all poles");
    fleet_dropped_counter_ = &metrics_.make_counter(
        "hawc_fleet_frames_dropped_total",
        "Frames that ended dropped (unrecoverable) across all poles");
    fleet_quarantines_counter_ = &metrics_.make_counter(
        "hawc_fleet_quarantines_total", "Watchdog quarantines across all poles");
    excluded_gauge_ = &metrics_.make_gauge(
        "hawc_fleet_excluded_poles", "Poles excluded from the aggregate this tick");
    max_staleness_gauge_ = &metrics_.make_gauge(
        "hawc_fleet_max_staleness_ticks",
        "Oldest included count's age in ticks (the staleness-bound witness)");
}

void fleet_manager::attach_observability(obs::event_log& log) {
    event_log_ = &log;
    for (auto& pole : poles_) pole->attach_events(&log);
}

void fleet_manager::enable_flight_recorders(const obs::flight_recorder_config& config) {
    for (auto& pole : poles_) pole->enable_flight_recorder(config, event_log_, nullptr);
}

void fleet_manager::install_slo(std::vector<obs::slo_rule> rules, std::uint64_t period) {
    HAWC_REQUIRE(period > 0, "SLO evaluation period must be positive");
    slo_period_ = period;
    slo_.emplace(metrics_, metrics_, std::move(rules), event_log_);
}

std::vector<obs::postmortem_bundle> fleet_manager::collect_postmortems() {
    std::vector<obs::postmortem_bundle> out;
    for (auto& pole : poles_) {
        if (pole->recorder() == nullptr) continue;
        auto dumps = pole->recorder()->take_dumps();
        out.insert(out.end(), std::make_move_iterator(dumps.begin()),
                   std::make_move_iterator(dumps.end()));
    }
    return out;
}

obs::health_summary fleet_manager::fleet_health() const {
    if (slo_) return slo_->summary();
    return {};
}

void fleet_manager::submit(std::size_t pole, link_message msg) {
    HAWC_REQUIRE(pole < poles_.size(), "pole index out of range");
    poles_[pole]->submit(std::move(msg));
}

void fleet_manager::tick() {
    ++tick_;
    ticks_counter_->add(1);

    // Each pole's tick touches only that pole's state, so neither the
    // chunk a pole falls in nor the lane that claims it changes the
    // result: bit-identical for any thread count (the thread_pool
    // contract). One pole per chunk lets a free lane take the next pole
    // instead of waiting behind a slow one.
    const std::uint64_t now = tick_;
    global_pool().parallel_for(0, poles_.size(), 1,
                               [&](std::size_t lo, std::size_t hi, std::size_t) {
                                   for (std::size_t i = lo; i < hi; ++i) {
                                       poles_[i]->run_tick(now);
                                   }
                               });

    publish_tick();

    // Observability rides the same virtual clock: bucket refills and SLO
    // evaluations are functions of the tick counter, never wall time.
    if (event_log_ != nullptr) event_log_->advance_tick(tick_);
    if (slo_ && tick_ % slo_period_ == 0) slo_->evaluate(tick_);
}

void fleet_manager::publish_tick() {
    occupancy_snapshot snap;
    snap.tick = tick_;
    snap.poles.resize(poles_.size());

    std::uint64_t frames_shed = 0;
    std::uint64_t frames_total = 0;
    std::uint64_t dropped_total = 0;
    std::uint64_t quarantines_total = 0;
    std::uint64_t max_staleness = 0;
    for (std::size_t i = 0; i < poles_.size(); ++i) {
        const pole_runtime& p = *poles_[i];

        // Ladder: freshness of the last good count decides the rung; the
        // pole's watchdog state only gates the live rung (a quarantined
        // pole can still serve stale within the bound).
        pole_rung rung = pole_rung::excluded;
        if (p.has_good_count()) {
            const std::uint64_t age = tick_ - p.last_good_tick();
            if (age <= config_.stale_after_ticks && p.state() == pole_state::live) {
                rung = pole_rung::live;
            } else if (age <= config_.exclude_after_ticks) {
                rung = pole_rung::stale_count;
            }
        }
        rungs_[i] = rung;

        pole_occupancy& slot = snap.poles[i];
        slot.rung = rung;
        slot.epoch = p.supervisor().health().epoch;
        if (rung != pole_rung::excluded) {
            slot.count = p.last_good_count();
            slot.updated_tick = p.last_good_tick();
            snap.aggregate += slot.count;
            ++snap.included;
            max_staleness = std::max(max_staleness, tick_ - p.last_good_tick());
        } else {
            slot.count = 0;
            slot.updated_tick = p.last_good_tick();
        }

        // Mirror per-pole accounting into the labeled metrics (deltas for
        // counters, absolutes for gauges).
        pole_metrics& pm = pole_metrics_[i];
        const pole_stats& st = p.stats();
        pm.frames->add(st.processed - pm.frames_seen);
        pm.frames_seen = st.processed;
        pm.restarts->add(st.restarts - pm.restarts_seen);
        pm.restarts_seen = st.restarts;
        pm.quarantines->add(st.quarantines - pm.quarantines_seen);
        pm.quarantines_seen = st.quarantines;
        pm.checksum_failures->add(st.checksum_failures - pm.checksums_seen);
        pm.checksums_seen = st.checksum_failures;
        pm.state->set(static_cast<double>(static_cast<int>(p.state())));
        pm.rung->set(static_cast<double>(static_cast<std::uint32_t>(rung)));
        pm.count->set(static_cast<double>(p.last_good_count()));
        frames_shed += st.shed_inbox_overflow;
        // pole_stats are cumulative over the pole's lifetime (they do not
        // reset on restart, unlike the supervisor's epoch-scoped health),
        // so the fleet rollup is a plain monotonic sum.
        frames_total += st.processed;
        dropped_total += st.processed - st.good_frames;
        quarantines_total += st.quarantines;
    }

    aggregate_gauge_->set(static_cast<double>(snap.aggregate));
    included_gauge_->set(static_cast<double>(snap.included));
    frames_shed_counter_->add(frames_shed - frames_shed_seen_);
    frames_shed_seen_ = frames_shed;

    fleet_frames_counter_->add(frames_total - fleet_frames_seen_);
    fleet_frames_seen_ = frames_total;
    fleet_dropped_counter_->add(dropped_total - fleet_dropped_seen_);
    fleet_dropped_seen_ = dropped_total;
    fleet_quarantines_counter_->add(quarantines_total - fleet_quarantines_seen_);
    fleet_quarantines_seen_ = quarantines_total;
    excluded_gauge_->set(static_cast<double>(poles_.size() - snap.included));
    max_staleness_gauge_->set(static_cast<double>(max_staleness));

    board_.publish(snap);
}

std::vector<obs::slo_rule> default_fleet_slo_rules() {
    // Expressed in the rule grammar rather than built struct-by-struct:
    // the defaults double as living documentation of slo.hpp's syntax.
    return obs::parse_slo_rules(R"(
# Included counts must stay fresh (the staleness bound is 10 ticks).
alert occupancy_stale if value(hawc_fleet_max_staleness_ticks) > 6 for 3 resolve 3 severity warning
# Any pole excluded from the aggregate is degraded coverage.
alert poles_excluded if value(hawc_fleet_excluded_poles) > 0 for 2 resolve 4 severity error
# Sustained drop ratio across the fleet (multi-window burn rate).
alert drop_ratio if ratio(hawc_fleet_frames_dropped_total/hawc_fleet_frames_total) > 0.05 window 8/32 resolve 8 severity error
# Quarantines per tick; steady-state fleets quarantine ~never.
alert quarantine_rate if rate(hawc_fleet_quarantines_total) > 0.02 window 16/64 resolve 16 severity critical
)");
}

}  // namespace hawc::fleet
