#pragma once

// The black-box postmortem bundle: what a pole's flight recorder dumps
// when its watchdog quarantines it (or a manual trigger fires). A bundle is a self-contained forensics artifact:
//
//   * the last N frames the supervisor actually processed — clouds in
//     the round_to_recorded float32 precision, each with its original
//     stream index, observed (count, status) outcome, and the
//     supervisor's stale-rung carry state *before* the frame,
//   * the recent structured events and trace spans, pre-rendered as
//     JSONL / Chrome-trace JSON (human-readable without any tool),
//   * trigger, tick, pole id, and the pole's rng base seed.
//
// Because the carry state and per-frame stream indices are captured,
// replay_postmortem() re-executes the exact frames through a *fresh*
// supervisor via replay::replay_corpus_indexed and gets bit-identical
// (count, status) per frame — the property the flight-recorder drill
// asserts. On disk a bundle rides the standard checksummed replay
// envelope ("HWPM") with the compressed-payload flag set (clouds and the
// pre-rendered JSONL/trace text shrink well), so corruption fails with a
// clean io_error. Each frame's cloud and ground truth use the shared
// frame wire codec (replay::write_frame_record), the one corpus
// containers are built from.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "replay/frame_format.hpp"
#include "runtime/supervisor.hpp"

namespace hawc::obs {

inline constexpr std::uint32_t postmortem_magic = 0x4d505748;  // "HWPM"
inline constexpr std::uint16_t postmortem_version = 3;

enum class dump_trigger : std::uint8_t {
    manual = 0,
    quarantine = 1,
};

const char* to_string(dump_trigger trigger);

/// One frame as the flight recorder kept it.
struct recorded_frame {
    std::uint64_t frame_index = 0;  // original stream index (seeds the rng)
    replay::frame_record record;    // cloud in round_to_recorded precision
    supervisor_carry carry;         // supervisor state BEFORE this frame
    std::uint64_t count = 0;        // observed outcome
    frame_status status = frame_status::ok;

    bool operator==(const recorded_frame&) const = default;
};

struct postmortem_bundle {
    std::string pole_id;
    std::uint64_t base_seed = 0;
    dump_trigger trigger = dump_trigger::manual;
    std::uint64_t tick = 0;             // virtual time of the dump
    std::vector<recorded_frame> frames;  // oldest first
    std::string events_jsonl;           // recent events, one JSON object per line
    std::string trace_json;             // recent spans, Chrome trace_event format

    bool operator==(const postmortem_bundle&) const = default;
};

void save_postmortem(std::ostream& out, const postmortem_bundle& bundle);
postmortem_bundle load_postmortem(std::istream& in);

void save_postmortem_file(const std::filesystem::path& path, const postmortem_bundle& bundle);
postmortem_bundle load_postmortem_file(const std::filesystem::path& path);

/// Outcome of re-executing a bundle through a fresh supervisor.
struct postmortem_replay_result {
    std::size_t frames = 0;
    std::size_t matches = 0;  // frames whose (count, status) reproduced
    bool bit_exact = false;   // matches == frames
    std::vector<std::size_t> divergent;  // bundle indices that did not
};

/// Restore the bundle's carry state into `supervisor` and replay every
/// recorded frame through replay::replay_corpus_indexed with the
/// original stream indices, comparing (count, status) per frame. The
/// supervisor must be configured like the recorded one (same config and
/// classifiers) and freshly constructed or restarted — replay mutates
/// its carry state and health counters.
postmortem_replay_result replay_postmortem(const postmortem_bundle& bundle,
                                           frame_supervisor& supervisor);

}  // namespace hawc::obs
