#pragma once

// Record/replay driver. Recording renders deterministic walkway scenes
// (src/sim) through the LiDAR scanner — optionally through the sensor
// fault injector — into a frame_corpus. Replaying feeds a corpus through
// the full frame_supervisor pipeline with a deterministic per-frame rng
// stream, so two replays of the same corpus (any implementation pair,
// any thread count) see byte-identical inputs and rng draws frame by
// frame. That seed discipline is what makes the parity checker's diffs
// meaningful: a divergence is an implementation difference, never replay
// noise.

#include <cstdint>
#include <span>

#include "dataset/capture_pipeline.hpp"
#include "replay/frame_format.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/supervisor.hpp"

namespace hawc::replay {

/// Deterministic seed of frame `index` in a corpus: every consumer
/// (replay, parity pairs, logit diffs) must derive its per-frame rng from
/// this so the streams line up run-to-run and pair-to-pair.
std::uint64_t frame_seed(std::uint64_t base_seed, std::size_t index);

struct record_config {
    std::string name = "walkway";
    std::uint64_t seed = 2024;
    std::size_t frames = 6;

    /// Per-frame crowd composition: people drawn uniformly in
    /// [min_people, max_people], objects in [0, max_objects].
    std::size_t min_people = 0;
    std::size_t max_people = 6;
    std::size_t max_objects = 3;

    capture_config capture{};

    /// When set, every recorded frame passes through the sensor fault
    /// injector (for corpora that exercise the degradation ladder).
    bool inject_faults = false;
    fault_injection_config faults{};
};

/// Render `config.frames` scenes and return them as a corpus. Fully
/// deterministic: the same config yields the same corpus, bit for bit,
/// and the returned clouds are pre-rounded to the on-disk float32
/// precision (round_to_recorded), so saving and reloading the result is
/// an identity.
frame_corpus record_corpus(const record_config& config);

/// Outcome of replaying one corpus through a supervisor.
struct replay_result {
    std::vector<frame_report> reports;

    std::size_t frames_ok = 0;
    std::size_t frames_degraded = 0;
    std::size_t frames_dropped = 0;
    std::size_t total_count = 0;              // sum of per-frame counts
    std::size_t absolute_count_error = 0;     // sum |count - ground_truth|
};

/// Feed every frame of `corpus` through `supervisor` with the corpus's
/// deterministic per-frame rng streams.
replay_result replay_corpus(frame_supervisor& supervisor, const frame_corpus& corpus);

/// Like replay_corpus, but frame i's rng stream is seeded from
/// frame_seed(corpus.base_seed, indices[i]) instead of i. This is the
/// flight-recorder postmortem path (src/obs): a dumped bundle holds the
/// LAST N frames of a longer stream, so bit-exact re-execution must
/// reuse each frame's original stream index, not its ring position.
/// indices.size() must equal corpus.size().
replay_result replay_corpus_indexed(frame_supervisor& supervisor, const frame_corpus& corpus,
                                    std::span<const std::uint64_t> indices);

}  // namespace hawc::replay
