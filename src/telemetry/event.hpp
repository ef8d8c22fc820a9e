#pragma once

// Structured events: the third observability pillar next to metrics
// (metrics.hpp) and spans (trace.hpp). An event is one discrete thing
// that happened — a stage failure, a ladder transition, a quarantine, an
// alert flip — as a fixed-size value type: no allocation to build one,
// no allocation to publish one, so emission sites can sit on the frame
// hot path behind a null check.
//
// Only the vocabulary lives here (kinds, severities, the event struct,
// the abstract sink); the concrete ring buffer, rate limiting, and
// exporters live in src/obs (event_log.hpp), above the replay layer.
// That split lets the frame supervisor — far below obs — emit events
// without a dependency cycle: runtime talks to an event_sink*, obs
// provides one.

#include <array>
#include <cstdint>
#include <string_view>

namespace hawc::telemetry {

enum class event_severity : std::uint8_t {
    debug = 0,
    info = 1,
    warning = 2,
    error = 3,
    critical = 4,
};

inline constexpr std::size_t event_severity_count = 5;

/// The closed vocabulary of things the system reports. Closed on
/// purpose: per-kind rate limiting and per-kind counters need a dense
/// index, and a forensics reader grepping a postmortem needs stable
/// names, not free-form strings.
enum class event_kind : std::uint8_t {
    stage_failure = 0,      // a pipeline stage failed (detail in `what`)
    frame_dropped = 1,      // a frame was unrecoverable
    ladder_fixed_eps = 2,   // degradation rung 1: fixed-eps DBSCAN
    ladder_float_model = 3,  // degradation rung 2: fp32 classifier rescue
    ladder_stale_count = 4,  // degradation rung 3: stale count served
    stale_cap_exhausted = 5,  // rung 3 budget spent, zero admitted
    link_corruption = 6,    // pole link delivered a corrupted message
    pole_quarantined = 7,   // watchdog parked a pole
    pole_restarted = 8,     // backoff expired, supervisor restarted
    pole_recovered = 9,     // probation streak complete, pole live again
    isa_dispatch = 10,      // kernel ISA tier selected at startup
    alert_firing = 11,      // an SLO rule crossed into firing
    alert_resolved = 12,    // a firing SLO rule cleared
    recorder_dump = 13,     // flight recorder produced a postmortem
};

inline constexpr std::size_t event_kind_count = 14;

std::string_view to_string(event_severity severity);
std::string_view to_string(event_kind kind);

/// One key/value annotation. Keys are static-lifetime literals (same
/// contract as span names); values are doubles — counts, indices, and
/// enum codes all fit, and it keeps the event trivially copyable.
struct event_field {
    const char* key = nullptr;
    double value = 0.0;
};

inline constexpr std::size_t event_max_fields = 4;
inline constexpr std::size_t event_pole_capacity = 12;  // incl. NUL
inline constexpr std::size_t event_what_capacity = 32;  // incl. NUL

/// One structured event. Fixed-size and trivially copyable: the obs
/// ring stores them preallocated, and the flight recorder serializes
/// them into postmortem bundles. The short `what` buffer holds a
/// human-readable detail (truncated if longer); dynamic context belongs
/// in fields, not in strings.
struct event {
    event_kind kind = event_kind::stage_failure;
    event_severity severity = event_severity::info;
    std::uint64_t frame = 0;  // supervisor frame seq / corpus frame index
    std::uint64_t tick = 0;   // fleet virtual time (0 outside a fleet)
    std::array<char, event_pole_capacity> pole{};  // NUL-terminated id
    std::array<char, event_what_capacity> what{};  // NUL-terminated detail
    std::array<event_field, event_max_fields> fields{};
    std::uint8_t field_count = 0;

    std::string_view pole_view() const { return {pole.data()}; }
    std::string_view what_view() const { return {what.data()}; }

    /// Copy (and truncate) into the fixed buffers.
    void set_pole(std::string_view id);
    void set_what(std::string_view detail);

    /// Append a field; silently drops past event_max_fields (an event
    /// with clipped annotations beats an allocation or a throw mid-frame).
    void add_field(const char* key, double value);

    /// The field's value, or `fallback` when the key is absent.
    double field_or(std::string_view key, double fallback) const;
};

/// Convenience builder for emission sites.
event make_event(event_kind kind, event_severity severity, std::string_view what = {});

/// Where events go. Implementations must be safe to call from multiple
/// threads (poles tick in parallel). Returns false when the event was
/// suppressed (e.g. rate limited) rather than recorded.
class event_sink {
public:
    virtual ~event_sink() = default;
    virtual bool publish(const event& ev) = 0;
};

/// Decorating sink that stamps a pole id and the current virtual tick
/// onto every event before forwarding. Each pole_runtime owns one and
/// hands it to its supervisor, so events emitted deep in the frame
/// pipeline arrive at the shared log already attributed. Not itself
/// thread-safe across set_* calls: a pole's tagger is only touched by
/// whichever thread runs that pole's tick (the pole_runtime contract).
class tagging_event_sink final : public event_sink {
public:
    void set_target(event_sink* target) { target_ = target; }
    event_sink* target() const { return target_; }
    void set_pole(std::string_view id);
    void set_tick(std::uint64_t tick) { tick_ = tick; }

    bool publish(const event& ev) override;

private:
    event_sink* target_ = nullptr;
    std::array<char, event_pole_capacity> pole_{};
    std::uint64_t tick_ = 0;
};

}  // namespace hawc::telemetry
