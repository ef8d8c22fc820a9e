#pragma once

// Deterministic in-process pole-link transport. A pole_link models the
// lossy network hop between a blue-light pole's sensor head and the edge
// box running its supervisor: frames are posted with send(), age in an
// in-flight queue measured in fleet ticks (virtual time — no wall clocks,
// no sleeps), and come out of receive() subject to seeded fault
// injection: drop, delay, reorder, duplicate, and payload corruption.
// Corruption is applied *after* the checksum is stamped, so a corrupted
// message is internally inconsistent exactly like a real bit-flip on the
// wire — the receiver catches it with verify_checksum (the PR4 fnv1a64
// envelope discipline applied per message) and never feeds the pipeline
// a silently wrong cloud. Identically-seeded links with identical send
// sequences misbehave identically, which is what lets the chaos soak
// assert exact fault schedules.

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "pointcloud/point_cloud.hpp"

namespace hawc::fleet {

/// Per-message fault probabilities; all default to a clean link.
struct link_fault_config {
    double drop_prob = 0.0;       // message vanishes
    double delay_prob = 0.0;      // message held for 1..3 ticks
    double reorder_prob = 0.0;    // message jumps ahead of the queue head
    double duplicate_prob = 0.0;  // message delivered twice
    double corrupt_prob = 0.0;    // one payload bit flipped after checksum
};

/// One frame in flight from a pole's sensor to its supervisor.
struct link_message {
    std::uint64_t frame_index = 0;  // position in the pole's recorded stream
    std::uint32_t ground_truth = 0;
    point_cloud cloud;
    std::uint64_t checksum = 0;  // message_checksum() over the fields above
};

/// fnv1a64 over the message's logical bytes (frame_index, ground_truth,
/// point count, f64 coordinates) — the per-message analogue of the replay
/// envelope checksum.
std::uint64_t message_checksum(const link_message& msg);

/// True when the stamped checksum matches the payload.
bool verify_checksum(const link_message& msg);

/// What the link did, cumulatively. `sent`+injected faults reconcile with
/// `delivered`+`dropped`+`pending` so soak tests can audit conservation.
struct link_stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t delayed = 0;
    std::uint64_t reordered = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
};

class pole_link {
public:
    pole_link(const link_fault_config& config, std::uint64_t seed)
        : config_{config}, chaos_{seed} {}

    /// Post one frame toward the pole. Stamps the checksum, then rolls
    /// each fault independently against the link's seeded rng.
    void send(link_message msg);

    /// Advance one tick and return every message whose delay expired, in
    /// queue order. Call exactly once per fleet tick.
    std::vector<link_message> receive();

    std::size_t pending() const { return queue_.size(); }
    const link_stats& stats() const { return stats_; }

private:
    struct in_flight {
        link_message msg;
        std::size_t due_in = 0;  // ticks until deliverable
    };

    link_fault_config config_;
    rng chaos_;
    std::deque<in_flight> queue_;
    link_stats stats_;
};

}  // namespace hawc::fleet
