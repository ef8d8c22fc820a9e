#pragma once

// Lock-free occupancy snapshot service: the read side of the fleet. The
// fleet manager publishes one snapshot per tick (single writer); any
// number of reader threads take consistent snapshots without blocking
// the writer or each other. The board is a seqlock over per-pole slots
// whose fields are all relaxed atomics — no mutex anywhere on this path,
// no torn reads, and the sequence check rejects any snapshot that
// overlapped a publish, so a reader never mixes two ticks' data.
//
//   writer: seq -> odd, fence, store fields (relaxed), fence, seq -> even
//   reader: s1 = seq (acquire); odd? retry : fence, load fields
//           (relaxed), fence, s2 = seq; s1 != s2? retry
//
// Every snapshot carries the tick it was published at plus per-pole
// update ticks, making staleness an explicit, testable bound
// (within_staleness) instead of an implicit hope.

#include <atomic>
#include <cstdint>
#include <vector>

namespace hawc::fleet {

/// Fleet-level degradation rung of one pole, mildest first — the fleet
/// mirror of the per-frame ladder in runtime/health.hpp.
enum class pole_rung : std::uint32_t {
    live,         // fresh counts flowing
    stale_count,  // serving its last good count within the staleness bound
    excluded,     // no usable data; removed from the aggregate
};

const char* to_string(pole_rung rung);

/// One pole's published occupancy.
struct pole_occupancy {
    std::uint64_t count = 0;         // latest good people count
    std::uint64_t epoch = 0;         // supervisor restart epoch (health.hpp)
    std::uint64_t updated_tick = 0;  // tick the count was last refreshed
    pole_rung rung = pole_rung::excluded;

    bool operator==(const pole_occupancy&) const = default;
};

/// A consistent point-in-time view of the whole fleet.
struct occupancy_snapshot {
    std::uint64_t tick = 0;     // fleet tick this snapshot was published at
    std::uint64_t version = 0;  // publish counter (monotonic)
    std::uint64_t aggregate = 0;  // sum of counts over included poles
    std::uint32_t included = 0;   // poles contributing to the aggregate
    std::vector<pole_occupancy> poles;

    /// True when every included (non-excluded) pole's count is at most
    /// `max_age_ticks` old as of `now_tick` — the service's staleness
    /// contract: data older than the bound must be excluded, not served.
    bool within_staleness(std::uint64_t now_tick, std::uint64_t max_age_ticks) const;

    bool operator==(const occupancy_snapshot&) const = default;
};

/// Single-writer / multi-reader seqlock board. Capacity is fixed at
/// construction; publish() accepts snapshots with up to that many poles.
class occupancy_board {
public:
    explicit occupancy_board(std::size_t capacity);

    occupancy_board(const occupancy_board&) = delete;
    occupancy_board& operator=(const occupancy_board&) = delete;

    /// Publish a snapshot. Single writer only (the fleet tick loop);
    /// wait-free for readers — they retry, the writer never blocks.
    void publish(const occupancy_snapshot& snap);

    /// Take a consistent snapshot; retries while a publish is in flight.
    occupancy_snapshot read() const;

    /// Cheap freshness probe: number of publishes so far. One relaxed
    /// load — poll this before paying for a full read().
    std::uint64_t version() const {
        return seq_.load(std::memory_order_relaxed) / 2;
    }

    std::size_t capacity() const { return slots_.size(); }

private:
    struct slot {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> epoch{0};
        std::atomic<std::uint64_t> updated_tick{0};
        std::atomic<std::uint32_t> rung{
            static_cast<std::uint32_t>(pole_rung::excluded)};
    };

    std::atomic<std::uint64_t> seq_{0};  // odd while a publish is in flight
    std::atomic<std::uint64_t> tick_{0};
    std::atomic<std::uint64_t> aggregate_{0};
    std::atomic<std::uint32_t> included_{0};
    std::atomic<std::uint32_t> pole_count_{0};
    std::vector<slot> slots_;
};

}  // namespace hawc::fleet
