// Property-based tests: invariants that must hold across randomized
// inputs, swept with parameterized gtest over seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "clustering/adaptive_eps.hpp"
#include "clustering/dbscan.hpp"
#include "common/rng.hpp"
#include "counting/crowd_counter.hpp"
#include "features/pipeline.hpp"
#include "features/upsampling.hpp"
#include "pointcloud/kd_tree.hpp"
#include "quant/q_types.hpp"

namespace hawc {
namespace {

point_cloud blob_cloud(rng& r, std::size_t blobs, std::size_t per_blob, double spread) {
    point_cloud cloud;
    for (std::size_t b = 0; b < blobs; ++b) {
        const vec3 center{r.uniform(-10.0, 10.0), r.uniform(-10.0, 10.0),
                          r.uniform(-2.0, 2.0)};
        for (std::size_t i = 0; i < per_blob; ++i) {
            cloud.push_back(center + vec3{r.normal(0.0, spread), r.normal(0.0, spread),
                                          r.normal(0.0, spread)});
        }
    }
    return cloud;
}

class seeded_property : public ::testing::TestWithParam<std::uint64_t> {};

// --- DBSCAN invariants ---

TEST_P(seeded_property, dbscan_core_point_invariants) {
    rng r{GetParam()};
    const point_cloud cloud = blob_cloud(r, 3, 50, 0.2);
    dbscan_config cfg;
    cfg.eps = 0.5;
    cfg.min_points = 5;
    cfg.metric = cluster_metric{1.0};
    const cluster_result result = dbscan(cloud, cfg);

    // Brute-force oracle: points within eps, the point itself included.
    const auto count_within = [&](const vec3& q) {
        std::size_t count = 0;
        for (const vec3& p : cloud) count += p.distance_sq_to(q) <= cfg.eps * cfg.eps ? 1 : 0;
        return count;
    };
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const std::size_t neighbors = count_within(cloud[i]);
        if (result.labels[i] == noise_label) {
            // A noise point cannot itself be a core point.
            EXPECT_LT(neighbors, cfg.min_points) << "noise point " << i << " is core";
        }
    }
    // Every cluster contains at least one core point.
    std::vector<bool> has_core(result.cluster_count, false);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        if (result.labels[i] != noise_label &&
            count_within(cloud[i]) >= cfg.min_points) {
            has_core[static_cast<std::size_t>(result.labels[i])] = true;
        }
    }
    for (std::size_t c = 0; c < result.cluster_count; ++c) {
        EXPECT_TRUE(has_core[c]) << "cluster " << c << " has no core point";
    }
}

TEST_P(seeded_property, dbscan_deterministic) {
    rng r{GetParam()};
    const point_cloud cloud = blob_cloud(r, 2, 40, 0.3);
    dbscan_config cfg;
    cfg.eps = 0.6;
    const cluster_result a = dbscan(cloud, cfg);
    const cluster_result b = dbscan(cloud, cfg);
    EXPECT_EQ(a.labels, b.labels);
}

TEST_P(seeded_property, dbscan_translation_invariant) {
    rng r{GetParam()};
    const point_cloud cloud = blob_cloud(r, 2, 40, 0.25);
    const point_cloud moved = cloud.translated({100.0, -50.0, 5.0});
    dbscan_config cfg;
    cfg.eps = 0.6;
    cfg.metric = cluster_metric{1.0};
    const cluster_result a = dbscan(cloud, cfg);
    const cluster_result b = dbscan(moved, cfg);
    EXPECT_EQ(a.cluster_count, b.cluster_count);
    EXPECT_EQ(a.labels, b.labels);
}

// --- Adaptive eps ---

TEST_P(seeded_property, adaptive_eps_scales_with_geometry) {
    rng r{GetParam()};
    const point_cloud cloud = blob_cloud(r, 3, 60, 0.15);
    point_cloud doubled;
    for (const auto& p : cloud) doubled.push_back(p * 2.0);

    adaptive_eps_config cfg;
    cfg.metric = cluster_metric{1.0};
    cfg.min_eps = 1e-4;
    cfg.max_eps = 100.0;
    const double eps1 = adaptive_epsilon(cloud, cfg);
    const double eps2 = adaptive_epsilon(doubled, cfg);
    // Distances scale linearly, so the elbow should roughly double.
    EXPECT_NEAR(eps2 / eps1, 2.0, 0.8);
}

TEST_P(seeded_property, knn_curve_is_monotone) {
    rng r{GetParam()};
    const point_cloud cloud = blob_cloud(r, 2, 80, 0.4);
    const auto curve = knn_distance_curve(cloud, 4, cluster_metric{1.0});
    EXPECT_TRUE(std::is_sorted(curve.begin(), curve.end()));
    for (double d : curve) EXPECT_GE(d, 0.0);
}

// --- KD-tree with clustered (non-uniform) data ---

TEST_P(seeded_property, kd_tree_knn_on_clustered_data) {
    rng r{GetParam() + 100};
    const point_cloud cloud = blob_cloud(r, 4, 60, 0.1);
    const kd_tree tree{cloud};
    for (int trial = 0; trial < 10; ++trial) {
        const vec3 q = cloud[r.uniform_index(cloud.size())];
        const auto got = tree.nearest(q, 6);
        // Brute-force reference.
        std::vector<double> all;
        for (const auto& p : cloud) all.push_back(p.distance_to(q));
        std::sort(all.begin(), all.end());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_NEAR(got[i].distance, all[i], 1e-9);
        }
    }
}

// --- Quantization round trips ---

TEST_P(seeded_property, quant_roundtrip_error_bounded) {
    rng r{GetParam() + 200};
    const float lo = static_cast<float>(r.uniform(-10.0, -0.1));
    const float hi = static_cast<float>(r.uniform(0.1, 10.0));
    const auto params = quant_params::from_range(lo, hi);
    for (int i = 0; i < 200; ++i) {
        const float v = static_cast<float>(r.uniform(lo, hi));
        const float back = params.dequantize(params.quantize(v));
        EXPECT_LE(std::abs(back - v), params.scale * 0.5f + 1e-6f);
    }
}

TEST_P(seeded_property, quantize_is_monotone) {
    rng r{GetParam() + 300};
    const auto params = quant_params::from_range(-5.0f, 5.0f);
    float previous = -6.0f;
    for (float v = -6.0f; v <= 6.0f; v += 0.37f) {
        EXPECT_GE(params.quantize(v), params.quantize(previous));
        previous = v;
    }
}

// --- Up-sampling ---

TEST_P(seeded_property, upsample_always_hits_target) {
    rng r{GetParam() + 400};
    object_pool pool;
    pool.add_cloud(blob_cloud(r, 2, 100, 1.0));
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 1 + r.uniform_index(600);
        point_cloud cluster = blob_cloud(r, 1, n, 0.2);
        upsample_config cfg;
        cfg.target_points = 324;
        const point_cloud out = upsample_cluster(cluster, cfg, pool, r);
        EXPECT_EQ(out.size(), 324u);
    }
}

// --- Multiplicity estimation ---

TEST_P(seeded_property, multiplicity_never_zero_and_monotone_in_area) {
    rng r{GetParam() + 500};
    multiplicity_config cfg;
    std::size_t previous = 1;
    for (double width : {0.5, 1.5, 2.5, 4.0, 6.0}) {
        point_cloud cluster;
        for (int i = 0; i < 400; ++i) {
            cluster.push_back({20.0 + r.uniform(0.0, width), r.uniform(0.0, width), -2.0});
        }
        const std::size_t k = estimate_multiplicity(cluster, cfg);
        EXPECT_GE(k, 1u);
        EXPECT_GE(k + 1, previous);  // non-decreasing (allow estimator jitter of 1)
        previous = k;
    }
}

// --- Degenerate inputs: empty, single-point, and all-identical clouds ---
//
// Sensor faults (stuck beams, truncated frames) produce exactly these
// shapes, so the clustering and feature stages must stay well-defined on
// them rather than assume a healthy capture.

TEST(degenerate_input, adaptive_dbscan_empty_cloud) {
    const adaptive_clustering_result result = adaptive_dbscan(point_cloud{});
    EXPECT_EQ(result.clusters.cluster_count, 0u);
    EXPECT_TRUE(result.clusters.labels.empty());
}

TEST(degenerate_input, adaptive_dbscan_single_point) {
    const point_cloud cloud{{{20.0, 0.0, -1.0}}};
    const adaptive_clustering_result result = adaptive_dbscan(cloud);
    EXPECT_EQ(result.clusters.cluster_count, 0u);
    ASSERT_EQ(result.clusters.labels.size(), 1u);
    EXPECT_EQ(result.clusters.labels[0], noise_label);
}

TEST(degenerate_input, adaptive_dbscan_all_identical_points) {
    // A stuck beam re-reporting one return: the k-NN curve is all zeros,
    // so eps selection has no elbow to find. This must not read out of
    // bounds or produce a non-finite eps (regression for the duplicate-
    // flood path in adaptive_epsilon).
    for (std::size_t n : {2u, 5u, 64u, 500u}) {
        point_cloud cloud;
        for (std::size_t i = 0; i < n; ++i) cloud.push_back({20.0, 0.0, -1.0});
        const adaptive_clustering_result result = adaptive_dbscan(cloud);
        EXPECT_TRUE(std::isfinite(result.chosen_eps)) << "n=" << n;
        adaptive_eps_config cfg;
        EXPECT_GE(result.chosen_eps, cfg.min_eps) << "n=" << n;
        EXPECT_LE(result.chosen_eps, cfg.max_eps) << "n=" << n;
        // Identical points are mutual eps-neighbours: one cluster (or all
        // noise when n is below min_points), never a crash.
        if (n >= cfg.min_points) {
            EXPECT_EQ(result.clusters.cluster_count, 1u) << "n=" << n;
        }
    }
}

TEST(degenerate_input, adaptive_epsilon_mostly_duplicates) {
    // Enough duplicates to push the zero-distance prefix past the elbow
    // search band, with a few genuine points behind it.
    point_cloud cloud;
    for (int i = 0; i < 300; ++i) cloud.push_back({20.0, 0.0, -1.0});
    rng r{7};
    for (int i = 0; i < 10; ++i) {
        cloud.push_back({20.0 + r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), -1.0});
    }
    const double eps = adaptive_epsilon(cloud);
    adaptive_eps_config cfg;
    EXPECT_TRUE(std::isfinite(eps));
    EXPECT_GE(eps, cfg.min_eps);
    EXPECT_LE(eps, cfg.max_eps);
}

TEST(degenerate_input, feature_extractor_empty_cluster) {
    rng r{11};
    object_pool pool;
    pool.add_cloud(blob_cloud(r, 2, 100, 0.5));
    cnn_feature_extractor extractor{cnn_feature_config{}, pool};
    const tensor t = extractor.extract(point_cloud{}, r);
    ASSERT_GT(t.size(), 0u);
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_TRUE(std::isfinite(t[i]));
}

TEST(degenerate_input, feature_extractor_single_point) {
    rng r{12};
    object_pool pool;
    pool.add_cloud(blob_cloud(r, 2, 100, 0.5));
    cnn_feature_extractor extractor{cnn_feature_config{}, pool};
    const tensor t = extractor.extract(point_cloud{{{20.0, 0.0, -1.0}}}, r);
    ASSERT_GT(t.size(), 0u);
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_TRUE(std::isfinite(t[i]));
}

TEST(degenerate_input, feature_extractor_identical_points) {
    rng r{13};
    object_pool pool;
    pool.add_cloud(blob_cloud(r, 2, 100, 0.5));
    cnn_feature_extractor extractor{cnn_feature_config{}, pool};
    point_cloud cluster;
    for (int i = 0; i < 40; ++i) cluster.push_back({20.0, 0.0, -1.0});
    const tensor t = extractor.extract(cluster, r);
    ASSERT_GT(t.size(), 0u);
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_TRUE(std::isfinite(t[i]));
}

// --- Rotation invariances used by augmentation ---

TEST_P(seeded_property, rotation_preserves_centroid_and_z) {
    rng r{GetParam() + 600};
    const point_cloud cloud = blob_cloud(r, 1, 80, 0.5);
    const vec3 c = cloud.centroid();
    const point_cloud rotated = cloud.rotated_z(c, r.uniform(0.0, 2.0 * std::numbers::pi));
    const vec3 c2 = rotated.centroid();
    EXPECT_NEAR(c.x, c2.x, 1e-9);
    EXPECT_NEAR(c.y, c2.y, 1e-9);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_DOUBLE_EQ(cloud[i].z, rotated[i].z);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, seeded_property,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace hawc
