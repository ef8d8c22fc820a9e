#pragma once

// Fixed-size worker pool with a deterministic parallel_for. The design
// goal is bit-identical results for any thread count: parallel_for cuts
// [begin, end) into fixed chunks of `grain` indices (chunk c is
// [begin + c*grain, min(end, begin + (c+1)*grain))) and every lane, the
// caller included, claims the next chunk index from one shared counter
// until none are left, so a lane that finishes early takes more work
// instead of idling behind a slow one. Chunk boundaries depend only on
// the range and the grain, never on the pool size or on scheduling; which
// lane runs a chunk does. Every index is processed exactly once, so any
// per-index computation that does not read its neighbours' output is
// reproducible by construction. Per-chunk outputs must be keyed by the
// chunk index (size them with chunk_count()) and merged sequentially in
// chunk order (see DESIGN.md "Threading model").
//
// On a single-lane pool, for a range of at most one grain, and for nested
// parallel_for calls (a parallel region entered from inside a worker),
// the whole range runs inline on the calling thread as chunk 0. The
// nested case keeps per-cluster fan-out composable with the parallel
// kernels underneath it without deadlock or oversubscription.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

namespace hawc {

class thread_pool {
public:
    /// A pool with `threads` execution lanes (the calling thread counts
    /// as lane 0; `threads - 1` workers are spawned). threads == 0 is
    /// treated as 1.
    explicit thread_pool(std::size_t threads);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Total execution lanes (including the submitting thread).
    std::size_t thread_count() const { return lanes_; }

    /// Body invoked as body(chunk_begin, chunk_end, chunk). Chunks are
    /// contiguous, disjoint, numbered in range order, and cover
    /// [begin, end); `chunk` is below chunk_count(end - begin, grain).
    using chunk_fn = std::function<void(std::size_t, std::size_t, std::size_t)>;

    /// Run `body` over [begin, end) in chunks of `grain` indices (the last
    /// one may be shorter; grain 0 is treated as 1), each claimed by
    /// whichever lane is free next, or over the whole range inline as
    /// chunk 0 (see the file comment). Blocks until every chunk finished;
    /// the first exception caught from any chunk is rethrown here.
    void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                      const chunk_fn& body);

    // Utilization telemetry (exported as gauges by
    // telemetry::record_pool_gauges); relaxed counters, safe to sample
    // from any thread.

    /// Cumulative parallel_for calls that fanned out across the workers.
    std::uint64_t jobs_dispatched() const { return jobs_.load(std::memory_order_relaxed); }
    /// Cumulative ranges run inline on the caller (single lane, range of
    /// at most one grain, or nested region).
    std::uint64_t inline_runs() const {
        return inline_runs_.load(std::memory_order_relaxed);
    }
    /// Lanes executing a chunk right now, including the submitting
    /// thread's; an instantaneous (racy-by-nature) sample.
    std::size_t active_lanes() const { return active_.load(std::memory_order_relaxed); }

    /// Cumulative top-level parallel_for calls that arrived while another
    /// caller already held lanes busy (they serialised on the job lock).
    /// A rising rate means independent pipelines are contending for the
    /// pool.
    std::uint64_t contended_dispatches() const {
        return contended_.load(std::memory_order_relaxed);
    }

    /// active_lanes() / thread_count(): instantaneous fraction of lanes
    /// busy, in [0, 1]. Racy by nature and wall-clock dependent: meant
    /// for gauges and profiling, never for a decision on a replayable
    /// path (the fleet runs on tick time only).
    double utilization() const {
        return static_cast<double>(active_lanes()) / static_cast<double>(lanes_);
    }

private:
    std::atomic<std::uint64_t> jobs_{0};
    std::atomic<std::uint64_t> inline_runs_{0};
    std::atomic<std::uint64_t> contended_{0};
    std::atomic<std::size_t> active_{0};
    struct impl;
    std::unique_ptr<impl> impl_;  // null when lanes_ == 1 (no workers spawned)
    std::size_t lanes_ = 1;
};

/// Number of chunks parallel_for cuts `n` indices into at this grain
/// (grain 0 is treated as 1): the bound on the `chunk` argument, for
/// sizing per-chunk outputs.
constexpr std::size_t chunk_count(std::size_t n, std::size_t grain) {
    if (grain == 0) grain = 1;
    return n / grain + (n % grain != 0 ? 1 : 0);
}

/// Largest lane count HAWC_THREADS may ask for.
inline constexpr std::size_t max_env_threads = 1024;

/// Parses a HAWC_THREADS value strictly: a decimal integer in
/// [1, max_env_threads] and nothing else (no sign, blank or suffix).
/// Throws invalid_argument_error naming the rejected value otherwise.
std::size_t parse_thread_count(std::string_view text);

/// The process-wide pool used by the pipeline kernels. Sized on first use
/// from the HAWC_THREADS environment variable when set (through
/// parse_thread_count, so a bad value throws here), otherwise from
/// std::thread::hardware_concurrency().
thread_pool& global_pool();

/// Replace the global pool with one of `threads` lanes. Not thread-safe
/// against concurrent parallel_for callers — call it between pipeline
/// runs (tests use it to sweep thread counts).
void set_global_thread_count(std::size_t threads);

/// Lanes in the current global pool (creates it on first call).
std::size_t global_thread_count();

}  // namespace hawc
