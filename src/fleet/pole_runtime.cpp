#include "fleet/pole_runtime.hpp"

#include <algorithm>

#include "replay/replay_driver.hpp"

namespace hawc::fleet {

namespace {

// Fixed stream indices carving the pole's seed space: frame rng streams
// use frame_seed(seed, frame_index) directly, so the link and backoff
// streams hide behind indices no real corpus reaches.
constexpr std::size_t link_stream_index = 0xf1ee71a5;
constexpr std::size_t backoff_stream_index = 0xbac0ff;

// Buffered frames per pole; an arrival into a full inbox sheds the oldest.
constexpr std::size_t max_inbox = 8;
// Frames each pole may process per tick.
constexpr std::size_t frames_per_tick = 4;
// Consecutive link checksum failures before quarantine.
constexpr std::size_t max_checksum_failures = 4;

}  // namespace

const char* to_string(pole_state state) {
    switch (state) {
        case pole_state::live: return "live";
        case pole_state::probation: return "probation";
        case pole_state::quarantined: return "quarantined";
    }
    return "unknown";
}

pole_runtime::pole_runtime(std::string pole_id, std::uint64_t seed,
                           const supervisor_config& supervisor,
                           const link_fault_config& link,
                           const watchdog_config& watchdog,
                           const human_classifier& primary,
                           const human_classifier* fallback)
    : id_{std::move(pole_id)},
      stream_seed_{seed},
      watchdog_{watchdog},
      supervisor_{supervisor, primary, fallback},
      link_{link, replay::frame_seed(seed, link_stream_index)},
      backoff_rng_{replay::frame_seed(seed, backoff_stream_index)} {}

void pole_runtime::submit(link_message msg) { link_.send(std::move(msg)); }

void pole_runtime::attach_events(telemetry::event_sink* sink) {
    events_.set_target(sink);
    events_.set_pole(id_);
    supervisor_.set_event_sink(sink != nullptr ? &events_ : nullptr);
}

void pole_runtime::enable_flight_recorder(const obs::flight_recorder_config& config,
                                          const obs::event_log* events,
                                          const telemetry::trace_sink* spans) {
    recorder_.emplace(config, id_, stream_seed_);
    recorder_->attach_sources(events, spans);
}

void pole_runtime::emit(telemetry::event ev) {
    if (events_.target() != nullptr) events_.publish(ev);
}

void pole_runtime::run_tick(std::uint64_t tick) {
    events_.set_tick(tick);
    auto arrivals = link_.receive();

    if (state_ == pole_state::quarantined) {
        stats_.rejected_quarantined += arrivals.size();
        if (tick < resume_tick_) return;
        // Backoff expired: restart the supervisor (bumping its health
        // epoch) and start proving a recovery streak.
        supervisor_.restart();
        if (recorder_) recorder_->reset_ring();  // new epoch, new black box
        ++stats_.restarts;
        state_ = pole_state::probation;
        probation_progress_ = 0;
        last_progress_tick_ = tick;
        {
            telemetry::event ev =
                telemetry::make_event(telemetry::event_kind::pole_restarted,
                                      telemetry::event_severity::info, "probation");
            ev.add_field("attempt", static_cast<double>(attempt_));
            emit(ev);
        }
        return;  // first frames flow next tick; this one was spent restarting
    }

    for (auto& msg : arrivals) {
        if (inbox_.size() >= max_inbox) {
            inbox_.pop_front();
            ++stats_.shed_inbox_overflow;
        }
        inbox_.push_back(std::move(msg));
    }

    std::size_t used = 0;
    while (used < frames_per_tick && !inbox_.empty() && state_ != pole_state::quarantined) {
        link_message msg = std::move(inbox_.front());
        inbox_.pop_front();
        ++used;
        process_message(std::move(msg), tick);
    }

    if (state_ == pole_state::live && watchdog_.max_silent_ticks > 0 &&
        tick - last_progress_tick_ > watchdog_.max_silent_ticks) {
        quarantine(tick);  // hung: nothing processed for too long
    }
}

void pole_runtime::process_message(link_message msg, std::uint64_t tick) {
    if (!verify_checksum(msg)) {
        ++stats_.checksum_failures;
        ++checksum_streak_;
        {
            telemetry::event ev =
                telemetry::make_event(telemetry::event_kind::link_corruption,
                                      telemetry::event_severity::warning, "checksum");
            ev.frame = msg.frame_index;
            ev.add_field("streak", static_cast<double>(checksum_streak_));
            emit(ev);
        }
        if (checksum_streak_ >= max_checksum_failures) quarantine(tick);
        return;
    }
    checksum_streak_ = 0;

    if (seen_recently(msg.frame_index)) {
        ++stats_.duplicates_dropped;
        return;
    }

    // The same per-frame rng stream a solo replay_corpus run would use:
    // healthy poles in a faulted fleet stay bit-identical to their
    // single-supervisor baselines.
    rng random{replay::frame_seed(stream_seed_, static_cast<std::size_t>(msg.frame_index))};
    // The carry must be captured before process() mutates it: a postmortem
    // replay re-arms the ladder with the oldest retained frame's carry.
    supervisor_carry carry_before;
    if (recorder_) carry_before = supervisor_.carry();
    const frame_report report = supervisor_.process(msg.cloud, random);
    ++stats_.processed;
    last_progress_tick_ = tick;
    if (record_history_) history_.push_back({msg.frame_index, report.count, report.status});
    if (recorder_) {
        recorder_->record(msg.frame_index, msg.ground_truth, std::move(msg.cloud), carry_before,
                          report);
    }

    if (report.status == frame_status::dropped) {
        ++dropped_streak_;
        // A drop during probation is a flap: back to quarantine with the
        // escalated backoff rather than oscillating live/quarantined.
        if (state_ == pole_state::probation ||
            dropped_streak_ >= watchdog_.max_consecutive_dropped) {
            quarantine(tick);
        }
        return;
    }

    dropped_streak_ = 0;
    ++stats_.good_frames;
    has_good_ = true;
    last_good_count_ = report.count;
    last_good_tick_ = tick;
    if (state_ == pole_state::probation) {
        ++probation_progress_;
        if (probation_progress_ >= watchdog_.probation_recovery_streak) {
            state_ = pole_state::live;
            attempt_ = 0;  // a real recovery clears the escalation
            telemetry::event ev =
                telemetry::make_event(telemetry::event_kind::pole_recovered,
                                      telemetry::event_severity::info, "live");
            ev.frame = msg.frame_index;
            ev.add_field("streak", static_cast<double>(probation_progress_));
            emit(ev);
        }
    }
}

void pole_runtime::quarantine(std::uint64_t tick) {
    ++stats_.quarantines;
    stats_.discarded_on_quarantine += inbox_.size();
    inbox_.clear();

    // Capped exponential backoff with deterministic jitter: attempt k
    // waits min(cap, base << k) ticks plus up to jitter_fraction of that,
    // drawn from this pole's own rng stream.
    const std::size_t shift = std::min<std::size_t>(attempt_, 32);
    std::uint64_t backoff = watchdog_.backoff_base_ticks << shift;
    backoff = std::min(backoff, watchdog_.backoff_cap_ticks);
    backoff = std::max<std::uint64_t>(backoff, 1);
    const auto jitter_span = static_cast<std::uint64_t>(
        watchdog_.backoff_jitter_fraction * static_cast<double>(backoff));
    const std::uint64_t jitter =
        jitter_span > 0 ? backoff_rng_.uniform_index(jitter_span + 1) : 0;

    state_ = pole_state::quarantined;
    resume_tick_ = tick + backoff + jitter;
    ++attempt_;
    dropped_streak_ = 0;
    checksum_streak_ = 0;
    probation_progress_ = 0;

    {
        telemetry::event ev =
            telemetry::make_event(telemetry::event_kind::pole_quarantined,
                                  telemetry::event_severity::error, "watchdog");
        ev.add_field("attempt", static_cast<double>(attempt_));
        ev.add_field("resume_tick", static_cast<double>(resume_tick_));
        emit(ev);
    }

    // The black box closes its loop here: quarantine is exactly the
    // moment the last N frames are forensically interesting.
    if (recorder_ && recorder_->trigger_dump(obs::dump_trigger::quarantine, tick)) {
        telemetry::event ev =
            telemetry::make_event(telemetry::event_kind::recorder_dump,
                                  telemetry::event_severity::error, "quarantine");
        ev.add_field("pending", static_cast<double>(recorder_->pending_dumps()));
        emit(ev);
    }
}

bool pole_runtime::seen_recently(std::uint64_t frame_index) {
    const std::uint64_t tagged = frame_index + 1;  // 0 marks an empty slot
    for (std::size_t i = 0; i < recent_filled_; ++i) {
        if (recent_[i] == tagged) return true;
    }
    recent_[recent_next_] = tagged;
    recent_next_ = (recent_next_ + 1) % recent_.size();
    if (recent_filled_ < recent_.size()) ++recent_filled_;
    return false;
}

}  // namespace hawc::fleet
