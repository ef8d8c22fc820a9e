// Tests for point_cloud, the KD tree and the neighbour grid (both validated
// against brute force), and IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <numbers>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pointcloud/cloud_io.hpp"
#include "pointcloud/kd_tree.hpp"
#include "pointcloud/neighbor_grid.hpp"
#include "pointcloud/point_cloud.hpp"

namespace hawc {
namespace {

point_cloud random_cloud(std::size_t n, rng& r, double extent = 10.0) {
    point_cloud cloud;
    cloud.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.push_back({r.uniform(-extent, extent), r.uniform(-extent, extent),
                         r.uniform(-extent, extent)});
    }
    return cloud;
}

TEST(point_cloud, basic_container_ops) {
    point_cloud c;
    EXPECT_TRUE(c.empty());
    c.push_back({1.0, 2.0, 3.0});
    c.push_back({4.0, 5.0, 6.0});
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1], (vec3{4.0, 5.0, 6.0}));
    c.clear();
    EXPECT_TRUE(c.empty());
}

TEST(point_cloud, append) {
    point_cloud a{{{1.0, 0.0, 0.0}}};
    point_cloud b{{{2.0, 0.0, 0.0}, {3.0, 0.0, 0.0}}};
    a.append(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a[2].x, 3.0);
}

TEST(point_cloud, centroid_and_bounds) {
    point_cloud c{{{0.0, 0.0, 0.0}, {2.0, 4.0, 6.0}}};
    EXPECT_EQ(c.centroid(), (vec3{1.0, 2.0, 3.0}));
    const aabb box = c.bounds();
    EXPECT_EQ(box.lo, (vec3{0.0, 0.0, 0.0}));
    EXPECT_EQ(box.hi, (vec3{2.0, 4.0, 6.0}));
    EXPECT_EQ(point_cloud{}.centroid(), vec3{});
    EXPECT_TRUE(point_cloud{}.bounds().empty());
}

TEST(point_cloud, filtered) {
    point_cloud c{{{0.0, 0.0, -1.0}, {0.0, 0.0, 1.0}, {0.0, 0.0, 2.0}}};
    const point_cloud positive = c.filtered([](const vec3& p) { return p.z > 0.0; });
    EXPECT_EQ(positive.size(), 2u);
}

TEST(point_cloud, translated) {
    point_cloud c{{{1.0, 1.0, 1.0}}};
    const point_cloud moved = c.translated({1.0, -1.0, 0.5});
    EXPECT_EQ(moved[0], (vec3{2.0, 0.0, 1.5}));
}

TEST(point_cloud, rotated_z_quarter_turn) {
    point_cloud c{{{1.0, 0.0, 5.0}}};
    const point_cloud rotated = c.rotated_z({0.0, 0.0, 0.0}, std::numbers::pi / 2);
    EXPECT_NEAR(rotated[0].x, 0.0, 1e-12);
    EXPECT_NEAR(rotated[0].y, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(rotated[0].z, 5.0);  // z untouched
}

TEST(point_cloud, rotation_preserves_pairwise_distances) {
    rng r{3};
    const point_cloud c = random_cloud(40, r);
    const point_cloud rotated = c.rotated_z({1.0, 2.0, 0.0}, 1.234);
    for (std::size_t i = 0; i < c.size(); ++i) {
        for (std::size_t j = i + 1; j < c.size(); j += 7) {
            EXPECT_NEAR(c[i].distance_to(c[j]), rotated[i].distance_to(rotated[j]), 1e-9);
        }
    }
}

TEST(point_cloud, subset) {
    point_cloud c{{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}, {2.0, 0.0, 0.0}}};
    const std::size_t indices[] = {2, 0};
    const point_cloud s = c.subset(indices);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].x, 2.0);
    EXPECT_EQ(s[1].x, 0.0);
}

TEST(cloud_io, roundtrip) {
    rng r{5};
    const point_cloud original = random_cloud(50, r);
    std::stringstream buffer;
    write_xyz(buffer, original);
    const point_cloud loaded = read_xyz(buffer);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_NEAR(loaded[i].x, original[i].x, 1e-4);
        EXPECT_NEAR(loaded[i].z, original[i].z, 1e-4);
    }
}

TEST(cloud_io, skips_comments_and_blank_lines) {
    std::istringstream in{"# header\n\n1 2 3\n# mid\n4 5 6\n"};
    const point_cloud c = read_xyz(in);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1], (vec3{4.0, 5.0, 6.0}));
}

TEST(cloud_io, rejects_malformed_line) {
    std::istringstream in{"1 2 3\nnot a point\n"};
    EXPECT_THROW(read_xyz(in), io_error);
}

TEST(cloud_io, missing_file_throws) {
    EXPECT_THROW(read_xyz_file("/nonexistent/path/cloud.xyz"), io_error);
}

// --- KD-tree, validated against brute force ---

std::vector<neighbor> brute_force_nearest(const point_cloud& cloud, const vec3& q,
                                          std::size_t k) {
    std::vector<neighbor> all;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        all.push_back({i, cloud[i].distance_to(q)});
    }
    std::sort(all.begin(), all.end(),
              [](const neighbor& a, const neighbor& b) { return a.distance < b.distance; });
    all.resize(std::min(k, all.size()));
    return all;
}

class kd_tree_random_test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(kd_tree_random_test, nearest_matches_brute_force) {
    rng r{GetParam()};
    const point_cloud cloud = random_cloud(200 + GetParam() * 37, r);
    const kd_tree tree{cloud};
    for (int trial = 0; trial < 20; ++trial) {
        const vec3 q{r.uniform(-12.0, 12.0), r.uniform(-12.0, 12.0), r.uniform(-12.0, 12.0)};
        const std::size_t k = 1 + r.uniform_index(8);
        const auto got = tree.nearest(q, k);
        const auto want = brute_force_nearest(cloud, q, k);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, kd_tree_random_test, ::testing::Values(1, 2, 3, 4, 5));

TEST(kd_tree, self_query_returns_self_first) {
    rng r{77};
    const point_cloud cloud = random_cloud(100, r);
    const kd_tree tree{cloud};
    const auto nb = tree.nearest(cloud[42], 1);
    ASSERT_EQ(nb.size(), 1u);
    EXPECT_EQ(nb[0].index, 42u);
    EXPECT_NEAR(nb[0].distance, 0.0, 1e-12);
}

TEST(kd_tree, k_larger_than_cloud) {
    point_cloud cloud{{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}}};
    const kd_tree tree{cloud};
    EXPECT_EQ(tree.nearest({0.0, 0.0, 0.0}, 10).size(), 2u);
}

TEST(kd_tree, empty_cloud) {
    const kd_tree tree{point_cloud{}};
    EXPECT_TRUE(tree.nearest({0.0, 0.0, 0.0}, 3).empty());
}

TEST(kd_tree, duplicate_points) {
    point_cloud cloud;
    for (int i = 0; i < 50; ++i) cloud.push_back({1.0, 1.0, 1.0});
    const kd_tree tree{cloud};
    const auto all = tree.nearest({1.0, 1.0, 1.0}, 50);
    ASSERT_EQ(all.size(), 50u);
    for (const neighbor& nb : all) EXPECT_EQ(nb.distance, 0.0);
    EXPECT_EQ(tree.nearest({1.0, 1.0, 1.0}, 7).size(), 7u);
}

// ---- neighbor_grid: both queries equal a brute-force scan bit for bit ----

// Cloud indices within `radius` of `q`, ascending, by the same comparison
// the grid makes.
std::vector<std::uint32_t> brute_radius(const point_cloud& cloud, const vec3& q, double radius) {
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        if (cloud[i].distance_sq_to(q) <= radius * radius) {
            want.push_back(static_cast<std::uint32_t>(i));
        }
    }
    return want;
}

std::vector<std::uint32_t> grid_radius(const neighbor_grid& grid, const vec3& q, double radius) {
    std::vector<std::uint32_t> found;
    grid.radius_into(q, radius, found);
    for (std::uint32_t& pos : found) pos = grid.cloud_index(pos);
    std::sort(found.begin(), found.end());
    return found;
}

double brute_nearest(const point_cloud& cloud, const vec3& q, std::size_t rank) {
    std::vector<double> d_sq;
    for (const vec3& p : cloud) d_sq.push_back(p.distance_sq_to(q));
    std::nth_element(d_sq.begin(), d_sq.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     d_sq.end());
    return std::sqrt(d_sq[rank - 1]);
}

// Every point of `cloud` as a query, at every radius and rank given.
void expect_grid_matches_brute_force(const point_cloud& cloud, std::initializer_list<double> radii,
                                     std::initializer_list<std::size_t> ranks) {
    const neighbor_grid grid{cloud};
    ASSERT_EQ(grid.size(), cloud.size());
    std::vector<double> scratch;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        for (const double radius : radii) {
            ASSERT_EQ(grid_radius(grid, cloud[i], radius), brute_radius(cloud, cloud[i], radius))
                << "point " << i << " radius " << radius;
        }
        for (const std::size_t rank : ranks) {
            if (rank > cloud.size()) continue;
            ASSERT_EQ(grid.nearest_distance(cloud[i], rank, scratch),
                      brute_nearest(cloud, cloud[i], rank))
                << "point " << i << " rank " << rank;
        }
    }
}

class neighbor_grid_random_test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(neighbor_grid_random_test, radius_matches_brute_force) {
    rng r{GetParam() + 1000};
    const point_cloud cloud = random_cloud(300, r);
    const neighbor_grid grid{cloud};
    for (int trial = 0; trial < 40; ++trial) {
        // Queries inside and well outside the cloud's footprint.
        const vec3 q{r.uniform(-15.0, 15.0), r.uniform(-15.0, 15.0), r.uniform(-12.0, 12.0)};
        const double radius = r.uniform(0.0, 6.0);
        EXPECT_EQ(grid_radius(grid, q, radius), brute_radius(cloud, q, radius));
    }
}

TEST_P(neighbor_grid_random_test, nearest_matches_brute_force) {
    rng r{GetParam() + 2000};
    const point_cloud cloud = random_cloud(200 + GetParam() * 37, r);
    const neighbor_grid grid{cloud};
    std::vector<double> scratch;
    for (int trial = 0; trial < 40; ++trial) {
        const vec3 q = trial % 2 == 0 ? cloud[r.uniform_index(cloud.size())]
                                      : vec3{r.uniform(-15.0, 15.0), r.uniform(-15.0, 15.0),
                                             r.uniform(-12.0, 12.0)};
        const std::size_t rank = 1 + r.uniform_index(24);
        EXPECT_EQ(grid.nearest_distance(q, rank, scratch), brute_nearest(cloud, q, rank));
    }
}

TEST_P(neighbor_grid_random_test, clustered_cloud_matches_brute_force) {
    // People-sized blobs on a walkway, z squashed as the clustering
    // metric does: the frame path's geometry.
    rng r{GetParam() + 3000};
    point_cloud cloud;
    for (int blob = 0; blob < 8; ++blob) {
        const vec3 center{r.uniform(-8.0, 8.0), r.uniform(-3.0, 3.0), 0.0};
        for (int i = 0; i < 40; ++i) {
            cloud.push_back(center + vec3{r.normal(0.0, 0.15), r.normal(0.0, 0.1),
                                          r.uniform(0.0, 0.27)});
        }
    }
    expect_grid_matches_brute_force(cloud, {0.05, 0.16, 0.35, 2.0}, {1, 2, 5, 10});
}

INSTANTIATE_TEST_SUITE_P(seeds, neighbor_grid_random_test, ::testing::Values(1, 2, 3, 4, 5));

TEST(neighbor_grid, zero_radius_finds_exact_matches) {
    point_cloud cloud{{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}}};
    const neighbor_grid grid{cloud};
    EXPECT_EQ(grid_radius(grid, {1.0, 0.0, 0.0}, 0.0), std::vector<std::uint32_t>{1});
    EXPECT_TRUE(grid_radius(grid, {0.5, 0.0, 0.0}, -1.0).empty());
}

TEST(neighbor_grid, exact_duplicates) {
    point_cloud cloud;
    for (int i = 0; i < 30; ++i) cloud.push_back({1.0, 1.0, 1.0});
    for (int i = 0; i < 30; ++i) cloud.push_back({1.0 + 0.01 * i, 1.0, 1.0});
    expect_grid_matches_brute_force(cloud, {0.0, 0.005, 0.1, 1.0}, {1, 5, 31, 40});
}

TEST(neighbor_grid, collinear_points) {
    point_cloud along_x;
    point_cloud along_y;
    point_cloud diagonal;
    for (int i = 0; i < 100; ++i) {
        const double t = 0.1 * i;
        along_x.push_back({t, 2.0, 0.0});
        along_y.push_back({-3.0, t, 0.5});
        diagonal.push_back({t, t, 0.0});
    }
    for (const point_cloud* cloud : {&along_x, &along_y, &diagonal}) {
        expect_grid_matches_brute_force(*cloud, {0.05, 0.1, 0.25, 3.0}, {1, 2, 3, 9});
    }
}

TEST(neighbor_grid, all_points_in_one_cell) {
    // One (x, y) for every point: only z separates them.
    point_cloud cloud;
    for (int i = 0; i < 60; ++i) cloud.push_back({4.0, -2.0, 0.01 * i});
    const neighbor_grid grid{cloud};
    EXPECT_EQ(grid.cell_count(), 1u);
    expect_grid_matches_brute_force(cloud, {0.0, 0.015, 0.2, 5.0}, {1, 2, 5, 60});
}

TEST(neighbor_grid, far_outliers) {
    rng r{44};
    point_cloud cloud = random_cloud(80, r, 1.0);
    cloud.push_back({5000.0, 0.0, 0.0});
    cloud.push_back({-3000.0, 7000.0, 1.0});
    cloud.push_back({0.0, -9000.0, -2.0});
    expect_grid_matches_brute_force(cloud, {0.1, 0.5, 1e4}, {1, 2, 5, 80});
}

TEST(neighbor_grid, radius_below_spacing_and_above_extent) {
    point_cloud lattice;
    for (int i = 0; i < 10; ++i) {
        for (int j = 0; j < 10; ++j) lattice.push_back({1.0 * i, 1.0 * j, 0.0});
    }
    const neighbor_grid grid{lattice};
    for (std::size_t i = 0; i < lattice.size(); ++i) {
        EXPECT_EQ(grid_radius(grid, lattice[i], 0.5),
                  std::vector<std::uint32_t>{static_cast<std::uint32_t>(i)});
        EXPECT_EQ(grid_radius(grid, lattice[i], 100.0).size(), lattice.size());
    }
    expect_grid_matches_brute_force(lattice, {0.5, 1.0, 1.5, 100.0}, {1, 2, 5, 100});
}

TEST(neighbor_grid, cell_count_is_bounded_by_point_count) {
    // Two points 1e6 m apart, queried at the smallest adaptive eps.
    constexpr std::size_t bound = 3 * neighbor_grid::cells_per_point * 2 + 1;
    const point_cloud wide{{{0.0, 0.0, 0.0}, {1e6, 1e6, 0.0}}};
    const point_cloud line{{{0.0, 0.0, 0.0}, {1e6, 0.0, 0.0}}};
    for (const point_cloud* cloud : {&wide, &line}) {
        const neighbor_grid grid{*cloud};
        EXPECT_LE(grid.cell_count(), bound);
        expect_grid_matches_brute_force(*cloud, {0.05, 2e6}, {1, 2});
    }
    rng r{45};
    const point_cloud spread = random_cloud(500, r, 1e6);
    EXPECT_LE(neighbor_grid{spread}.cell_count(), 3 * neighbor_grid::cells_per_point * 500 + 1);
}

// The clustering stage queries one grid from every pool lane at once;
// the answers must not depend on which lane asked (the thread-sanitizer
// phase of scripts/check.sh runs this suite).
TEST(neighbor_grid, pool_lane_queries_match_serial) {
    rng r{46};
    const point_cloud cloud = random_cloud(3000, r, 3.0);
    const neighbor_grid grid{cloud};
    std::vector<double> serial_knn(grid.size());
    std::vector<std::uint32_t> serial_counts(grid.size());
    std::vector<double> scratch;
    std::vector<std::uint32_t> found;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        serial_knn[i] = grid.nearest_distance(grid.point(i), 5, scratch);
        found.clear();
        grid.radius_into(grid.point(i), 0.6, found);
        serial_counts[i] = static_cast<std::uint32_t>(found.size());
    }

    thread_pool pool{4};
    std::vector<double> knn(grid.size());
    std::vector<std::uint32_t> counts(grid.size());
    pool.parallel_for(0, grid.size(), 64, [&](std::size_t lo, std::size_t hi, std::size_t) {
        std::vector<double> best;
        std::vector<std::uint32_t> hits;
        for (std::size_t i = lo; i < hi; ++i) {
            knn[i] = grid.nearest_distance(grid.point(i), 5, best);
            hits.clear();
            grid.radius_into(grid.point(i), 0.6, hits);
            counts[i] = static_cast<std::uint32_t>(hits.size());
        }
    });
    EXPECT_EQ(knn, serial_knn);
    EXPECT_EQ(counts, serial_counts);
}

TEST(neighbor_grid, rejects_a_footprint_past_the_double_range) {
    const point_cloud absurd{{{-1e200, -1e200, 0.0}, {1e200, 1e200, 0.0}}};
    EXPECT_THROW(neighbor_grid{absurd}, invalid_argument_error);
}

TEST(neighbor_grid, empty_cloud) {
    const neighbor_grid grid{point_cloud{}};
    EXPECT_EQ(grid.size(), 0u);
    EXPECT_TRUE(grid_radius(grid, {0.0, 0.0, 0.0}, 1.0).empty());
    std::vector<double> scratch;
    EXPECT_THROW(grid.nearest_distance({0.0, 0.0, 0.0}, 1, scratch), invalid_argument_error);
}

}  // namespace
}  // namespace hawc
