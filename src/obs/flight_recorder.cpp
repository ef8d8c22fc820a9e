#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/export.hpp"

namespace hawc::obs {

namespace {

/// Bundles held until take_dumps() drains them; further triggers are
/// counted but dropped.
constexpr std::size_t max_pending_dumps = 2;

/// Newest events / spans included in a bundle (rendered oldest-first).
constexpr std::size_t max_bundle_events = 64;
constexpr std::size_t max_bundle_spans = 256;

}  // namespace

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

void flight_recorder::record(std::uint64_t frame_index, std::uint32_t ground_truth,
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
}

bool flight_recorder::trigger_dump(dump_trigger trigger, std::uint64_t tick) {
    if (ring_.empty()) return false;
    if (pending_.size() >= max_pending_dumps) {
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
        bundle.events_jsonl = to_json_lines(events_->tail(max_bundle_events));
    }
    if (spans_ != nullptr) {
        std::vector<telemetry::span_record> spans = spans_->snapshot();
        if (spans.size() > max_bundle_spans) {
            spans.erase(spans.begin(),
                        spans.end() - static_cast<std::ptrdiff_t>(max_bundle_spans));
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

void flight_recorder::reset_ring() { ring_.clear(); }

void flight_recorder::clear() {
    ring_.clear();
    pending_.clear();
}

}  // namespace hawc::obs
