#include "fleet/occupancy.hpp"

#include "common/error.hpp"

namespace hawc::fleet {

const char* to_string(pole_rung rung) {
    switch (rung) {
        case pole_rung::live: return "live";
        case pole_rung::stale_count: return "stale_count";
        case pole_rung::excluded: return "excluded";
    }
    return "unknown";
}

bool occupancy_snapshot::within_staleness(std::uint64_t now_tick,
                                          std::uint64_t max_age_ticks) const {
    for (const auto& p : poles) {
        if (p.rung == pole_rung::excluded) continue;
        if (p.updated_tick > now_tick) return false;  // from the future: bogus
        if (now_tick - p.updated_tick > max_age_ticks) return false;
    }
    return true;
}

occupancy_board::occupancy_board(std::size_t capacity) : slots_(capacity) {
    HAWC_REQUIRE(capacity > 0, "occupancy board needs at least one slot");
}

void occupancy_board::publish(const occupancy_snapshot& snap) {
    HAWC_REQUIRE(snap.poles.size() <= slots_.size(),
                 "snapshot exceeds occupancy board capacity");
    const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);  // odd: publish in flight
    std::atomic_thread_fence(std::memory_order_seq_cst);

    tick_.store(snap.tick, std::memory_order_relaxed);
    aggregate_.store(snap.aggregate, std::memory_order_relaxed);
    included_.store(snap.included, std::memory_order_relaxed);
    pole_count_.store(static_cast<std::uint32_t>(snap.poles.size()),
                      std::memory_order_relaxed);
    for (std::size_t i = 0; i < snap.poles.size(); ++i) {
        slots_[i].count.store(snap.poles[i].count, std::memory_order_relaxed);
        slots_[i].epoch.store(snap.poles[i].epoch, std::memory_order_relaxed);
        slots_[i].updated_tick.store(snap.poles[i].updated_tick,
                                     std::memory_order_relaxed);
        slots_[i].rung.store(static_cast<std::uint32_t>(snap.poles[i].rung),
                             std::memory_order_relaxed);
    }

    std::atomic_thread_fence(std::memory_order_seq_cst);
    seq_.store(seq + 2, std::memory_order_release);  // even: consistent
}

occupancy_snapshot occupancy_board::read() const {
    for (;;) {
        const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
        if ((s1 & 1ull) != 0) continue;  // publish in flight
        std::atomic_thread_fence(std::memory_order_seq_cst);

        occupancy_snapshot snap;
        snap.tick = tick_.load(std::memory_order_relaxed);
        snap.version = s1 / 2;
        snap.aggregate = aggregate_.load(std::memory_order_relaxed);
        snap.included = included_.load(std::memory_order_relaxed);
        const std::uint32_t n = pole_count_.load(std::memory_order_relaxed);
        snap.poles.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            snap.poles[i].count = slots_[i].count.load(std::memory_order_relaxed);
            snap.poles[i].epoch = slots_[i].epoch.load(std::memory_order_relaxed);
            snap.poles[i].updated_tick =
                slots_[i].updated_tick.load(std::memory_order_relaxed);
            snap.poles[i].rung = static_cast<pole_rung>(
                slots_[i].rung.load(std::memory_order_relaxed));
        }

        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::uint64_t s2 = seq_.load(std::memory_order_acquire);
        if (s1 == s2) return snap;  // no publish overlapped the reads
    }
}

}  // namespace hawc::fleet
