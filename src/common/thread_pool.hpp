#pragma once

// Fixed-size worker pool with a deterministic parallel_for. The design
// goal is bit-identical results for any thread count: parallel_for splits
// [begin, end) into at most `max_slots()` contiguous chunks and hands the
// body (chunk_begin, chunk_end, slot). Chunk boundaries depend only on
// the range, the grain and the pool size, never on scheduling, and every
// index is processed exactly once — so any per-index computation that
// does not read its neighbours' output is reproducible by construction.
// Order-dependent reductions must merge per-slot partials sequentially
// by slot index (see DESIGN.md "Threading model").
//
// Nested parallel_for calls (a parallel region entered from inside a
// worker) run inline on the calling thread: the inner region sees one
// chunk, slot 0. This keeps per-cluster fan-out composable with the
// parallel kernels underneath it without deadlock or oversubscription.

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

    /// Upper bound on the `slot` argument passed to a parallel_for body;
    /// size per-slot scratch arrays with this.
    std::size_t max_slots() const { return lanes_; }

    /// Body invoked as body(chunk_begin, chunk_end, slot). Chunks are
    /// contiguous, disjoint, ordered by slot, and cover [begin, end).
    using chunk_fn = std::function<void(std::size_t, std::size_t, std::size_t)>;

    /// Run `body` over [begin, end) split into at most thread_count()
    /// chunks of at least `grain` indices each (the last chunk may be
    /// smaller when the range is). Blocks until every chunk finished;
    /// the first exception thrown by any chunk is rethrown here.
    void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                      const chunk_fn& body);

    // Utilization telemetry (exported as gauges by
    // telemetry::record_pool_gauges); relaxed counters, safe to sample
    // from any thread.

    /// Cumulative parallel_for calls that fanned out across the workers.
    std::uint64_t jobs_dispatched() const { return jobs_.load(std::memory_order_relaxed); }
    /// Cumulative ranges run inline on the caller (single lane, range too
    /// small to split, or nested region).
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
