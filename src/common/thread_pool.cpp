#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace hawc {

namespace {

// True while the current thread executes a parallel_for chunk; nested
// regions run inline instead of re-entering the pool.
thread_local bool in_parallel_region = false;

// Saves and restores the previous value: a chunk body may run several
// nested (inline) regions in sequence, and the flag must stay set until
// the outermost chunk finishes, or the second nested call would try to
// re-enter the pool and self-deadlock on job_mutex.
struct region_guard {
    bool prev;
    region_guard() : prev{in_parallel_region} { in_parallel_region = true; }
    ~region_guard() { in_parallel_region = prev; }
};

// Marks a lane busy for the duration of a chunk (the active_lanes gauge).
// Pass nullptr for nested regions so a lane is only counted once.
struct active_guard {
    std::atomic<std::size_t>* active;
    explicit active_guard(std::atomic<std::size_t>* a) : active{a} {
        if (active != nullptr) active->fetch_add(1, std::memory_order_relaxed);
    }
    ~active_guard() {
        if (active != nullptr) active->fetch_sub(1, std::memory_order_relaxed);
    }
};

}  // namespace

struct thread_pool::impl {
    thread_pool* owner = nullptr;  // for the utilization counters

    std::mutex job_mutex;  // serialises independent parallel_for callers

    std::mutex state_mutex;
    std::condition_variable work_cv;
    std::condition_variable done_cv;

    std::uint64_t generation = 0;
    const chunk_fn* body = nullptr;
    std::size_t job_begin = 0;
    std::size_t job_end = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next_chunk{0};  // the one counter every lane claims from
    std::size_t remaining = 0;
    std::exception_ptr first_error;
    bool stopping = false;

    std::vector<std::thread> workers;

    // Claims chunk indices until none are left. A throwing chunk does not
    // stop the lane: the rest of the range still runs, exactly once.
    void run_chunks() {
        std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= chunks) return;
        region_guard guard;
        active_guard busy{&owner->active_};
        for (; chunk < chunks; chunk = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
            const std::size_t lo = job_begin + chunk * grain;
            const std::size_t hi = lo + std::min(grain, job_end - lo);
            try {
                (*body)(lo, hi, chunk);
            } catch (...) {
                std::lock_guard lock{state_mutex};
                if (!first_error) first_error = std::current_exception();
            }
        }
    }

    void worker_main() {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock lock{state_mutex};
                work_cv.wait(lock, [&] { return stopping || generation != seen; });
                if (stopping) return;
                seen = generation;
            }
            run_chunks();
            {
                std::lock_guard lock{state_mutex};
                --remaining;
            }
            done_cv.notify_one();
        }
    }
};

thread_pool::thread_pool(std::size_t threads) {
    lanes_ = threads == 0 ? 1 : threads;
    if (lanes_ == 1) return;
    impl_ = std::make_unique<impl>();
    impl_->owner = this;
    impl_->workers.reserve(lanes_ - 1);
    for (std::size_t lane = 1; lane < lanes_; ++lane) {
        impl_->workers.emplace_back([this] { impl_->worker_main(); });
    }
}

thread_pool::~thread_pool() {
    if (impl_ == nullptr) return;
    {
        std::lock_guard lock{impl_->state_mutex};
        impl_->stopping = true;
    }
    impl_->work_cv.notify_all();
    for (auto& w : impl_->workers) w.join();
}

void thread_pool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                               const chunk_fn& body) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    const std::size_t chunks = chunk_count(end - begin, grain);

    // Single lane, a range of one grain, or a nested region: run the
    // whole range inline as chunk 0.
    if (chunks <= 1 || impl_ == nullptr || in_parallel_region) {
        inline_runs_.fetch_add(1, std::memory_order_relaxed);
        active_guard busy{in_parallel_region ? nullptr : &active_};
        region_guard guard;
        body(begin, end, 0);
        return;
    }
    jobs_.fetch_add(1, std::memory_order_relaxed);
    if (active_.load(std::memory_order_relaxed) > 0) {
        contended_.fetch_add(1, std::memory_order_relaxed);
    }

    std::lock_guard job_lock{impl_->job_mutex};
    {
        std::lock_guard lock{impl_->state_mutex};
        impl_->body = &body;
        impl_->job_begin = begin;
        impl_->job_end = end;
        impl_->grain = grain;
        impl_->chunks = chunks;
        impl_->next_chunk.store(0, std::memory_order_relaxed);
        impl_->remaining = impl_->workers.size();
        impl_->first_error = nullptr;
        ++impl_->generation;
    }
    impl_->work_cv.notify_all();

    // The calling thread is lane 0 and claims chunks like any worker.
    impl_->run_chunks();

    std::unique_lock lock{impl_->state_mutex};
    impl_->done_cv.wait(lock, [&] { return impl_->remaining == 0; });
    impl_->body = nullptr;
    if (impl_->first_error) {
        std::exception_ptr err = impl_->first_error;
        impl_->first_error = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

namespace {

std::size_t default_thread_count() {
    if (const char* env = std::getenv("HAWC_THREADS")) return parse_thread_count(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::unique_ptr<thread_pool>& global_pool_slot() {
    static std::unique_ptr<thread_pool> pool;
    return pool;
}

}  // namespace

std::size_t parse_thread_count(std::string_view text) {
    std::size_t value = 0;
    const char* const end = text.data() + text.size();
    const auto [stop, status] = std::from_chars(text.data(), end, value);
    if (status != std::errc{} || stop != end || value < 1 || value > max_env_threads) {
        throw invalid_argument_error{"HAWC_THREADS=\"" + std::string{text} +
                                     "\": expected a whole number of threads in [1, " +
                                     std::to_string(max_env_threads) + "]"};
    }
    return value;
}

thread_pool& global_pool() {
    auto& slot = global_pool_slot();
    if (!slot) slot = std::make_unique<thread_pool>(default_thread_count());
    return *slot;
}

void set_global_thread_count(std::size_t threads) {
    global_pool_slot() = std::make_unique<thread_pool>(threads);
}

std::size_t global_thread_count() { return global_pool().thread_count(); }

}  // namespace hawc
