#pragma once

// The structured event log: a lock-light, preallocated ring of
// telemetry::event records shared by every pole in a fleet.
//
//   * Admission is cheap and concurrent: the per-kind token buckets are
//     relaxed/CAS atomics, so a suppressed event (the storm case) never
//     takes a lock at all. An admitted
//     event takes one short critical section to copy ~120 bytes into
//     the ring — the same discipline as telemetry::trace_sink.
//   * Rate limiting runs in virtual tick time: advance_tick() refills
//     the buckets, so accept/suppress decisions replay deterministically
//     (no wall clocks anywhere; a single-threaded schedule of publishes
//     and ticks always yields the same decisions).
//   * Conservation: published() + suppressed() always equals the number
//     of publish() attempts — nothing is lost unaccounted, which is what
//     the TSan soak asserts.
//
// Exporters: to_json_lines() renders events as JSONL for operators and
// postmortem bundles; bind_metrics() mirrors per-kind accepted/
// suppressed counts into a metrics_registry as Prometheus counters.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "telemetry/event.hpp"
#include "telemetry/metrics.hpp"

namespace hawc::obs {

struct event_log_config {
    /// Ring capacity (events retained); older events are overwritten.
    std::size_t capacity = 1024;

    /// Token bucket per event kind: each kind may publish up to `burst`
    /// events instantly, refilled at `tokens_per_tick` per advance_tick().
    /// A non-positive burst disables rate limiting entirely.
    double tokens_per_tick = 4.0;
    double burst = 16.0;
};

class event_log final : public telemetry::event_sink {
public:
    explicit event_log(const event_log_config& config = {});

    /// Mirror per-kind accepted/suppressed counts and per-severity
    /// accepted counts into `registry` as Prometheus counters
    /// (hawc_events_total@kind=..., hawc_events_suppressed_total@kind=...,
    /// hawc_events_severity_total@severity=...). Call once, before
    /// concurrent publishing starts.
    void bind_metrics(telemetry::metrics_registry& registry);

    /// Thread-safe. Returns false when the event was suppressed (rate
    /// limit).
    bool publish(const telemetry::event& ev) override;

    /// Refill the token buckets for one elapsed virtual tick. Call from
    /// exactly one thread (the fleet tick loop), not concurrently with
    /// itself; concurrent publish() calls are fine.
    void advance_tick(std::uint64_t tick);

    /// Events currently retained, oldest first.
    std::vector<telemetry::event> snapshot() const;
    /// The newest `n` retained events, oldest first.
    std::vector<telemetry::event> tail(std::size_t n) const;

    std::uint64_t published() const { return published_.load(std::memory_order_relaxed); }
    std::uint64_t suppressed() const;
    std::uint64_t suppressed_of(telemetry::event_kind kind) const;
    std::size_t capacity() const { return config_.capacity; }
    std::uint64_t last_tick() const { return last_tick_.load(std::memory_order_relaxed); }

    void clear();

private:
    struct kind_state {
        std::atomic<std::int64_t> milli_tokens{0};
        std::atomic<std::uint64_t> suppressed{0};
        telemetry::counter* accepted_counter = nullptr;
        telemetry::counter* suppressed_counter = nullptr;
    };

    event_log_config config_;

    // Guards only the ring; admission control never touches it.
    mutable std::mutex mutex_;
    std::vector<telemetry::event> ring_;
    std::size_t next_ = 0;
    std::size_t size_ = 0;

    std::atomic<std::uint64_t> published_{0};
    std::atomic<std::uint64_t> last_tick_{0};
    std::array<kind_state, telemetry::event_kind_count> kinds_;
    std::array<telemetry::counter*, telemetry::event_severity_count> severity_counters_{};
};

/// One event rendered as a single-line JSON object (no trailing newline).
std::string to_json_line(const telemetry::event& ev);

/// JSONL rendering: one object per line, trailing newline per line.
std::string to_json_lines(std::span<const telemetry::event> events);

}  // namespace hawc::obs
