// Allocation accounting for the hot neighbour queries and the int8
// forward. This binary replaces the global operator new/delete with
// counting wrappers, so it must stay a dedicated executable: the KD tree's
// nearest_into and the neighbour grid's queries are required to perform
// ZERO heap allocations at steady state (after the caller's reused buffers
// reach their plateau capacity), which is what lets DBSCAN phase 1, the
// k-NN elbow curve and the HAP sigma pass issue millions of queries
// without serializing on the allocator; the int8 forward, run once per
// cluster, allocates only the logits it returns.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pointcloud/kd_tree.hpp"
#include "pointcloud/neighbor_grid.hpp"
#include "quant/q_model.hpp"
#include "replay/model_io.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

void* operator new(std::size_t size) {
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
    g_news.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace hawc {
namespace {

point_cloud seeded_cloud(std::size_t n, std::uint64_t seed) {
    rng r{seed};
    point_cloud cloud;
    for (std::size_t i = 0; i < n; ++i) {
        cloud.push_back({r.uniform(-10.0, 10.0), r.uniform(-10.0, 10.0),
                         r.uniform(-3.0, 0.0)});
    }
    return cloud;
}

TEST(kd_alloc, nearest_into_is_allocation_free_at_steady_state) {
    const point_cloud cloud = seeded_cloud(4000, 7);
    const kd_tree tree{cloud};
    std::vector<neighbor> out;

    // Warm-up: let `out` grow to its plateau capacity.
    for (std::size_t i = 0; i < 64; ++i) tree.nearest_into(cloud[i], 9, out);

    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < cloud.size(); ++i) tree.nearest_into(cloud[i], 9, out);
    const std::uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << (after - before) << " allocations in "
                                  << cloud.size() << " k-NN queries";
}

TEST(kd_alloc, large_k_nearest_into_is_allocation_free_at_steady_state) {
    // k > 16 takes the caller-storage heap instead of the inline one;
    // it must also stop allocating once the buffer has grown.
    const point_cloud cloud = seeded_cloud(4000, 8);
    const kd_tree tree{cloud};
    std::vector<neighbor> out;
    for (std::size_t i = 0; i < 64; ++i) tree.nearest_into(cloud[i], 48, out);

    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < 1000; ++i) tree.nearest_into(cloud[i], 48, out);
    const std::uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
}

TEST(grid_alloc, radius_into_is_allocation_free_at_steady_state) {
    const point_cloud cloud = seeded_cloud(4000, 9);
    const neighbor_grid grid{cloud};
    // Warm-up over the full query set: result counts vary per query, so
    // the buffer plateaus only once it has seen the largest one.
    std::vector<std::uint32_t> found;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        found.clear();
        grid.radius_into(grid.point(i), 1.5, found);
    }

    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    std::size_t total = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        found.clear();
        grid.radius_into(grid.point(i), 1.5, found);
        total += found.size();
    }
    const std::uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_GT(total, grid.size());
    EXPECT_EQ(after - before, 0u) << (after - before) << " allocations in "
                                  << grid.size() << " radius queries";
}

TEST(grid_alloc, nearest_distance_is_allocation_free_at_steady_state) {
    // The eps elbow's query (k + 1 = 5) and a rank past any inline size.
    const point_cloud cloud = seeded_cloud(4000, 10);
    const neighbor_grid grid{cloud};
    for (const std::size_t rank : {std::size_t{5}, std::size_t{48}}) {
        std::vector<double> best;
        grid.nearest_distance(grid.point(0), rank, best);  // sizes the scratch

        const std::uint64_t before = g_news.load(std::memory_order_relaxed);
        double total = 0.0;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            total += grid.nearest_distance(grid.point(i), rank, best);
        }
        const std::uint64_t after = g_news.load(std::memory_order_relaxed);
        EXPECT_GT(total, 0.0);
        EXPECT_EQ(after - before, 0u) << (after - before) << " allocations in "
                                      << grid.size() << " rank-" << rank << " queries";
    }
}

TEST(q_alloc, golden_int8_forward_allocates_only_its_logits) {
    const std::size_t threads = global_thread_count();
    set_global_thread_count(1);
    const quantized_model model =
        replay::load_quantized_file(std::filesystem::path{HAWC_GOLDEN_DIR} / "hawc_int8.qmodel");
    rng r{12};
    tensor sample{{1, 15, 15, 7}};
    for (std::size_t i = 0; i < sample.size(); ++i) {
        sample[i] = static_cast<float>(r.uniform(-1.0, 2.0));
    }

    // The returned logits tensor owns a shape vector and its data: that
    // is the whole allocation budget of one forward.
    std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const tensor like_logits{std::vector<std::size_t>{1, 2}};
    const std::uint64_t logits_allocs = g_news.load(std::memory_order_relaxed) - before;

    // Warm-up: the per-thread workspace grows to its plateau.
    for (int i = 0; i < 3; ++i) ASSERT_EQ(model.forward(sample).shape(), like_logits.shape());

    constexpr std::uint64_t forwards = 100;
    before = g_news.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < forwards; ++i) {
        const tensor logits = model.forward(sample);
        ASSERT_EQ(logits.size(), 2u);
    }
    const std::uint64_t allocs = g_news.load(std::memory_order_relaxed) - before;
    set_global_thread_count(threads);
    EXPECT_EQ(allocs, forwards * logits_allocs)
        << allocs << " allocations in " << forwards << " forwards";
}

}  // namespace
}  // namespace hawc
