#pragma once

// Recorded point-cloud frame sequences — the "record" half of
// record/replay. A corpus is a named, seeded sequence of raw captures
// (plus per-frame ground truth) that can be checked in as a small golden
// file and replayed deterministically through the pipeline; see
// DESIGN.md "Replay & parity" for the determinism contract. On disk a
// corpus is a single-stream HWCC container (container.hpp:
// save_corpus_file / load_corpus_file); this header holds the in-memory
// types and the one frame wire codec every on-disk form is built from.
//
// Point coordinates are stored as float32: golden corpora are recorded
// sensor data, and the recorder rounds its in-memory clouds to float
// before returning them (see round_to_recorded), so that a recorded
// corpus, its file, and every future load of that file are bit-identical.

#include <cstdint>
#include <string>
#include <vector>

#include "pointcloud/point_cloud.hpp"

namespace hawc::replay {

/// One recorded capture: the raw cloud as the sensor (or fault injector)
/// emitted it, plus the simulation ground truth for accuracy tracking.
struct frame_record {
    point_cloud cloud;
    std::uint32_t ground_truth = 0;

    bool operator==(const frame_record&) const = default;
};

/// A recorded frame sequence. `base_seed` seeds the deterministic
/// per-frame rng streams on replay (see replay_driver.hpp).
struct frame_corpus {
    std::string name;
    std::uint64_t base_seed = 0;
    std::vector<frame_record> frames;

    std::size_t size() const { return frames.size(); }
    bool empty() const { return frames.empty(); }
    std::size_t total_points() const;

    bool operator==(const frame_corpus&) const = default;
};

/// Round every coordinate to its float32 representation — what the
/// on-disk format preserves. Recorded corpora pass through this before
/// being returned so save/load round-trips bit-exactly.
point_cloud round_to_recorded(const point_cloud& cloud);

class byte_writer;
class byte_reader;

/// One frame in the shared wire layout (u32 ground truth, u64 point
/// count, f32 x/y/z per point) — the unit container chunk payloads
/// (container.hpp) and postmortem bundles (obs/postmortem.hpp) are built
/// from.
void write_frame_record(byte_writer& out, const frame_record& frame);
frame_record read_frame_record(byte_reader& in);

}  // namespace hawc::replay
