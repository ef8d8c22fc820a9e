#pragma once

// One pole's fault domain: a frame_supervisor plus its pole_link, a
// bounded inbox, and a watchdog state machine — everything that can go
// wrong on one pole stays on that pole. The watchdog runs in tick
// virtual time (no wall clocks, no sleeps) and detects three failure
// shapes, reusing the PR1 taxonomy the supervisor already accounts:
//
//   repeatedly-failing  consecutive dropped frames past a threshold
//   corrupting          4 consecutive link checksum failures
//   hung                no frame processed for max_silent_ticks
//
// Any of them quarantines the pole: its inbox is discarded, arrivals are
// rejected, and a restart is scheduled with capped exponential backoff
// plus deterministic jitter drawn from the pole's own rng (so identically
// seeded fleets back off identically, but co-faulting poles don't
// thundering-herd their restarts onto the same tick). A restart bumps the
// supervisor's health epoch (restart()), enters probation, and only a
// configured recovery streak of good frames promotes the pole back to
// live — a flapping pole re-quarantines with a longer backoff instead of
// oscillating.
//
// run_tick() touches exclusively this pole's state, so the fleet manager
// may run all poles' ticks in parallel with bit-identical results for
// any thread count (the thread_pool contract).

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "fleet/pole_link.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/supervisor.hpp"

namespace hawc::fleet {

enum class pole_state {
    live,         // processing normally
    probation,    // restarted, proving a recovery streak
    quarantined,  // parked until its backoff expires
};

const char* to_string(pole_state state);

struct watchdog_config {
    /// Consecutive dropped frames before quarantine.
    std::size_t max_consecutive_dropped = 8;
    /// Ticks without processing any frame before the pole counts as hung;
    /// 0 disables (a silent pole is then handled by the fleet ladder).
    std::uint64_t max_silent_ticks = 0;

    /// Backoff before restart attempt k: min(cap, base << k) ticks, plus
    /// jitter uniform in [0, jitter_fraction * backoff).
    std::uint64_t backoff_base_ticks = 4;
    std::uint64_t backoff_cap_ticks = 64;
    double backoff_jitter_fraction = 0.25;

    /// Good frames in probation required to return to live (and reset
    /// the backoff attempt counter) — the fleet-level hysteresis knob.
    std::size_t probation_recovery_streak = 3;
};

/// Per-pole accounting, cumulative over the pole's lifetime.
struct pole_stats {
    std::uint64_t processed = 0;            // frames through the supervisor
    std::uint64_t good_frames = 0;          // ok or degraded outcomes
    std::uint64_t checksum_failures = 0;    // corrupted messages rejected
    std::uint64_t duplicates_dropped = 0;   // replays of a seen frame_index
    std::uint64_t shed_inbox_overflow = 0;  // oldest frame evicted, inbox full
    std::uint64_t rejected_quarantined = 0;  // arrivals while quarantined
    std::uint64_t discarded_on_quarantine = 0;  // inbox flushed at quarantine
    std::uint64_t quarantines = 0;
    std::uint64_t restarts = 0;
};

/// One processed frame's outcome, recorded when history is enabled —
/// the unit of bit-exactness comparison against a solo replay baseline.
struct frame_outcome {
    std::uint64_t frame_index = 0;
    std::size_t count = 0;
    frame_status status = frame_status::ok;

    bool operator==(const frame_outcome&) const = default;
};

class pole_runtime {
public:
    /// `seed` doubles as the frame-stream base seed (must match the
    /// pole's corpus base_seed for replay parity) and, forked, as the
    /// backoff jitter stream. `primary`/`fallback` follow the
    /// frame_supervisor lifetime rules. The inbox buffers 8 frames;
    /// an arrival into a full inbox sheds the oldest.
    pole_runtime(std::string pole_id, std::uint64_t seed,
                 const supervisor_config& supervisor, const link_fault_config& link,
                 const watchdog_config& watchdog, const human_classifier& primary,
                 const human_classifier* fallback);

    /// Post one frame onto this pole's link (faults apply in transit).
    void submit(link_message msg);

    /// One tick of this pole's fault domain: drain the link, run up to
    /// 4 inbox frames through the supervisor, and advance the watchdog.
    /// Only this pole's state is touched — safe to run all poles' ticks
    /// concurrently.
    void run_tick(std::uint64_t tick);

    const std::string& id() const { return id_; }
    std::uint64_t stream_seed() const { return stream_seed_; }
    pole_state state() const { return state_; }
    std::size_t backoff_attempt() const { return attempt_; }
    std::uint64_t resume_tick() const { return resume_tick_; }

    bool has_good_count() const { return has_good_; }
    std::uint64_t last_good_count() const { return last_good_count_; }
    std::uint64_t last_good_tick() const { return last_good_tick_; }

    const pole_stats& stats() const { return stats_; }
    const link_stats& link() const { return link_.stats(); }
    std::size_t inbox_depth() const { return inbox_.size(); }

    frame_supervisor& supervisor() { return supervisor_; }
    const frame_supervisor& supervisor() const { return supervisor_; }

    /// Record every processed frame's (index, count, status) for parity
    /// assertions. Off by default (soaks process tens of thousands).
    void set_record_history(bool on) { record_history_ = on; }
    const std::vector<frame_outcome>& history() const { return history_; }

    /// Route this pole's lifecycle events (quarantine, restart, recovery,
    /// link corruption, ladder transitions) into `sink`, tagged with the
    /// pole id and current tick. Pass nullptr to detach. The supervisor's
    /// own stage/ladder events flow through the same tagger.
    void attach_events(telemetry::event_sink* sink);

    /// Arm the black-box flight recorder. `events`/`spans` are optional
    /// context snapshotted into postmortem bundles at dump time.
    void enable_flight_recorder(const obs::flight_recorder_config& config,
                                const obs::event_log* events = nullptr,
                                const telemetry::trace_sink* spans = nullptr);

    obs::flight_recorder* recorder() { return recorder_ ? &*recorder_ : nullptr; }
    const obs::flight_recorder* recorder() const {
        return recorder_ ? &*recorder_ : nullptr;
    }

private:
    void process_message(link_message msg, std::uint64_t tick);
    void quarantine(std::uint64_t tick);
    bool seen_recently(std::uint64_t frame_index);
    void emit(telemetry::event ev);

    std::string id_;
    std::uint64_t stream_seed_;
    watchdog_config watchdog_;

    frame_supervisor supervisor_;
    pole_link link_;
    rng backoff_rng_;

    std::deque<link_message> inbox_;
    // Ring of recently processed frame indices for duplicate suppression
    // (link duplicates and retransmits).
    std::array<std::uint64_t, 32> recent_{};
    std::size_t recent_next_ = 0;
    std::size_t recent_filled_ = 0;

    pole_state state_ = pole_state::live;
    std::size_t attempt_ = 0;        // backoff escalation counter
    std::uint64_t resume_tick_ = 0;  // when quarantine ends
    std::size_t dropped_streak_ = 0;
    std::size_t checksum_streak_ = 0;
    std::size_t probation_progress_ = 0;
    std::uint64_t last_progress_tick_ = 0;

    bool has_good_ = false;
    std::uint64_t last_good_count_ = 0;
    std::uint64_t last_good_tick_ = 0;

    pole_stats stats_;
    bool record_history_ = false;
    std::vector<frame_outcome> history_;

    // Observability: the tagger stamps pole id + tick on everything this
    // pole emits; the recorder is only touched from run_tick (same
    // single-thread-per-pole contract as the rest of the state).
    telemetry::tagging_event_sink events_;
    std::optional<obs::flight_recorder> recorder_;
};

}  // namespace hawc::fleet
