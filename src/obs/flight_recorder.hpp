#pragma once

// The black-box flight recorder one pole_runtime carries: a bounded ring
// of the last N frames the supervisor processed (the cloud as delivered,
// plus the supervisor's carry state before each frame and the observed
// outcome). On a trigger — quarantine or an explicit call — the ring is
// snapshotted into a postmortem_bundle, clouds rounded to the
// round_to_recorded float32 precision, together with the recent events
// and spans, ready to save and replay bit-exactly (postmortem.hpp).
// Recording is O(1) per frame: the cloud is moved in, and the rounding
// pass runs only at dump time.
//
// Threading: a recorder belongs to exactly one pole and is only touched
// by whichever thread runs that pole's tick (the pole_runtime contract),
// so it needs no locks. Dumps are produced in memory and drained by the
// single-threaded fleet loop via take_dumps(); file I/O never happens on
// a pool thread.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/postmortem.hpp"
#include "telemetry/trace.hpp"

namespace hawc::obs {

struct flight_recorder_config {
    /// Frames retained (the "last N" of the black box).
    std::size_t frame_capacity = 16;
};

class flight_recorder {
public:
    flight_recorder(const flight_recorder_config& config, std::string pole_id,
                    std::uint64_t base_seed);

    /// Optional context snapshotted into bundles at dump time. The event
    /// log may be shared (its snapshot is thread-safe); the trace sink
    /// must be this pole's own.
    void attach_sources(const event_log* events, const telemetry::trace_sink* spans);

    /// Record one processed frame. Takes `cloud` by value — move in the
    /// already-owned message cloud and the hot path is O(1); rounding to
    /// the recorded precision is deferred to dump time, off the per-frame
    /// path. `before` is the supervisor's carry state captured BEFORE
    /// process() ran.
    void record(std::uint64_t frame_index, std::uint32_t ground_truth,
                point_cloud cloud, const supervisor_carry& before,
                const frame_report& report);

    /// Snapshot the ring into a pending bundle, with the newest events
    /// and spans of the attached sources. Returns false when the ring is
    /// empty or two bundles are already pending (counted in
    /// dumps_dropped(): a crash-looping pole must not hoard memory).
    bool trigger_dump(dump_trigger trigger, std::uint64_t tick);

    /// Drain pending bundles (oldest first). Call from the single
    /// thread that owns this pole between ticks.
    std::vector<postmortem_bundle> take_dumps();

    std::size_t pending_dumps() const { return pending_.size(); }
    std::uint64_t frames_recorded() const { return frames_recorded_; }
    std::uint64_t dumps_produced() const { return dumps_produced_; }
    std::uint64_t dumps_dropped() const { return dumps_dropped_; }
    std::size_t ring_size() const { return ring_.size(); }
    const std::string& pole_id() const { return pole_id_; }

    /// Forget recorded frames (keeping pending bundles). Called on a
    /// supervisor restart: a bundle's frames must share one supervisor
    /// epoch or the carry-based replay re-arming breaks.
    void reset_ring();

    void clear();

private:
    flight_recorder_config config_;
    std::string pole_id_;
    std::uint64_t base_seed_;

    const event_log* events_ = nullptr;
    const telemetry::trace_sink* spans_ = nullptr;

    std::deque<recorded_frame> ring_;
    std::vector<postmortem_bundle> pending_;
    std::uint64_t frames_recorded_ = 0;
    std::uint64_t dumps_produced_ = 0;
    std::uint64_t dumps_dropped_ = 0;
};

}  // namespace hawc::obs
