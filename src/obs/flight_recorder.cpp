#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/export.hpp"

namespace hawc::obs {

flight_recorder::flight_recorder(const flight_recorder_config& config, std::string pole_id,
                                 std::uint64_t base_seed)
    : config_{config}, pole_id_{std::move(pole_id)}, base_seed_{base_seed} {
    HAWC_REQUIRE(config_.frame_capacity > 0, "flight recorder needs a positive capacity");
}

void flight_recorder::attach_sources(const event_log* events,
                                     const telemetry::trace_sink* spans) {
    events_ = events;
    spans_ = spans;
}

bool flight_recorder::record(std::uint64_t frame_index, std::uint32_t ground_truth,
                             point_cloud cloud, const supervisor_carry& before,
                             const frame_report& report) {
    recorded_frame frame;
    frame.frame_index = frame_index;
    // Stored as delivered; rounded to the recorded precision only when a
    // dump snapshots the ring (clean frames must not pay the conversion).
    frame.record = {std::move(cloud), ground_truth};
    frame.carry = before;
    frame.count = report.count;
    frame.status = report.status;

    if (ring_.size() >= config_.frame_capacity) ring_.pop_front();
    ring_.push_back(std::move(frame));
    ++frames_recorded_;

    // Deadline-storm detection: consecutive frames that blew the
    // whole-frame budget mean the pole is systematically too slow, not
    // unlucky once — worth a postmortem even though no rung dropped it.
    bool overrun = false;
    for (const failure_event& failure : report.failures) {
        if (failure.kind == failure_kind::stage_deadline &&
            failure.stage == pipeline_stage::frame) {
            overrun = true;
            break;
        }
    }
    if (!overrun) {
        overrun_streak_ = 0;
        return false;
    }
    ++overrun_streak_;
    if (config_.deadline_storm_threshold == 0 ||
        overrun_streak_ < config_.deadline_storm_threshold) {
        return false;
    }
    overrun_streak_ = 0;
    return trigger_dump(dump_trigger::deadline_storm, 0);
}

bool flight_recorder::trigger_dump(dump_trigger trigger, std::uint64_t tick) {
    if (ring_.empty()) return false;
    if (pending_.size() >= config_.max_pending_dumps) {
        ++dumps_dropped_;
        return false;
    }

    postmortem_bundle bundle;
    bundle.pole_id = pole_id_;
    bundle.base_seed = base_seed_;
    bundle.trigger = trigger;
    bundle.tick = tick;
    bundle.frames.assign(ring_.begin(), ring_.end());
    for (recorded_frame& frame : bundle.frames) {
        frame.record.cloud = replay::round_to_recorded(frame.record.cloud);
    }

    if (events_ != nullptr) {
        bundle.events_jsonl = to_json_lines(events_->tail(config_.max_bundle_events));
    }
    if (spans_ != nullptr) {
        std::vector<telemetry::span_record> spans = spans_->snapshot();
        if (spans.size() > config_.max_bundle_spans) {
            spans.erase(spans.begin(),
                        spans.end() - static_cast<std::ptrdiff_t>(config_.max_bundle_spans));
        }
        bundle.trace_json = telemetry::to_chrome_trace(spans);
    }

    pending_.push_back(std::move(bundle));
    ++dumps_produced_;
    return true;
}

std::vector<postmortem_bundle> flight_recorder::take_dumps() {
    std::vector<postmortem_bundle> out;
    out.swap(pending_);
    return out;
}

void flight_recorder::reset_ring() {
    ring_.clear();
    overrun_streak_ = 0;
}

void flight_recorder::clear() {
    ring_.clear();
    pending_.clear();
    overrun_streak_ = 0;
}

}  // namespace hawc::obs
