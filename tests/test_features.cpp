// Tests for up-sampling, height features, projections, slice features,
// and the CNN feature pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/rng.hpp"
#include "features/cluster_dataset.hpp"
#include "features/height_features.hpp"
#include "features/pipeline.hpp"
#include "features/projection.hpp"
#include "features/slice_features.hpp"
#include "features/upsampling.hpp"

namespace hawc {
namespace {

point_cloud synthetic_person_cluster(rng& r, const vec3& feet, std::size_t points = 60) {
    // A vertical scatter approximating a person: points along 0.1..1.7 m
    // above the feet within a 0.25 m radius column.
    point_cloud cloud;
    for (std::size_t i = 0; i < points; ++i) {
        cloud.push_back(feet + vec3{r.normal(0.0, 0.15), r.normal(0.0, 0.12),
                                    r.uniform(0.1, 1.7)});
    }
    return cloud;
}

object_pool make_pool(rng& r) {
    object_pool pool;
    point_cloud scatter;
    for (int i = 0; i < 500; ++i) {
        scatter.push_back({r.uniform(12.0, 35.0), r.uniform(-2.5, 2.5), r.uniform(-2.6, -1.0)});
    }
    pool.add_cloud(scatter);
    return pool;
}

TEST(upsampling, next_perfect_square) {
    EXPECT_EQ(next_perfect_square(0), 0u);
    EXPECT_EQ(next_perfect_square(1), 1u);
    EXPECT_EQ(next_perfect_square(2), 4u);
    EXPECT_EQ(next_perfect_square(16), 16u);
    EXPECT_EQ(next_perfect_square(17), 25u);
    EXPECT_EQ(next_perfect_square(300), 324u);
}

TEST(upsampling, compute_target_points) {
    const std::size_t sizes[] = {10, 50, 300};
    EXPECT_EQ(compute_target_points(sizes), 324u);
    EXPECT_THROW(compute_target_points({}), invalid_argument_error);
}

TEST(upsampling, pads_to_target_with_pool_points) {
    rng r{1};
    const object_pool pool = make_pool(r);
    const point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0});
    upsample_config cfg;
    cfg.target_points = 100;
    const point_cloud padded = upsample_cluster(cluster, cfg, pool, r);
    ASSERT_EQ(padded.size(), 100u);
    // Original points come first, unchanged.
    for (std::size_t i = 0; i < cluster.size(); ++i) EXPECT_EQ(padded[i], cluster[i]);
}

TEST(upsampling, downsamples_oversized_cluster) {
    rng r{2};
    const object_pool pool = make_pool(r);
    const point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 200);
    upsample_config cfg;
    cfg.target_points = 64;
    const point_cloud reduced = upsample_cluster(cluster, cfg, pool, r);
    EXPECT_EQ(reduced.size(), 64u);
    // Every point must come from the original cluster.
    for (const auto& p : reduced) {
        bool found = false;
        for (const auto& q : cluster) {
            if (p == q) {
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST(upsampling, gaussian_mode_scatters_around_centroid) {
    rng r{3};
    const object_pool pool = make_pool(r);
    const point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 10);
    upsample_config cfg;
    cfg.target_points = 400;
    cfg.method = sampling_method::gaussian;
    cfg.gaussian_sigma = 3.0;
    const point_cloud padded = upsample_cluster(cluster, cfg, pool, r);
    EXPECT_EQ(padded.size(), 400u);
    // Padded points should be spread with roughly the configured sigma.
    running_stats xs;
    for (std::size_t i = 10; i < padded.size(); ++i) xs.add(padded[i].x);
    EXPECT_NEAR(xs.stddev(), 3.0, 0.5);
}

TEST(upsampling, empty_pool_rejected) {
    object_pool pool;
    rng r{4};
    EXPECT_THROW(pool.sample(5, r), invalid_argument_error);
}

TEST(upsampling, pool_samples_come_from_added_clouds) {
    object_pool pool;
    point_cloud source{{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}}};
    pool.add_cloud(source);
    EXPECT_EQ(pool.size(), 2u);
    rng r{5};
    const point_cloud sampled = pool.sample(20, r);
    for (const auto& p : sampled) {
        EXPECT_TRUE(p == source[0] || p == source[1]);
    }
}

TEST(height_features, vertical_column_has_high_sigma) {
    // Points stacked vertically: neighbours span z heavily.
    point_cloud column;
    for (int i = 0; i < 20; ++i) column.push_back({0.0, 0.0, 0.1 * i});
    // Points on a flat plane: sigma ~ 0.
    point_cloud plane;
    for (int i = 0; i < 20; ++i) plane.push_back({0.1 * i, 0.0, 0.0});

    const auto column_sigma = height_variation(column, 4);
    const auto plane_sigma = height_variation(plane, 4);
    double column_mean = 0.0;
    double plane_mean = 0.0;
    for (double s : column_sigma) column_mean += s;
    for (double s : plane_sigma) plane_mean += s;
    EXPECT_GT(column_mean / 20.0, 10.0 * (plane_mean / 20.0 + 1e-12));
}

TEST(height_features, tiny_clouds_are_zero) {
    point_cloud single{{{1.0, 1.0, 1.0}}};
    const auto sigma = height_variation(single, 4);
    ASSERT_EQ(sigma.size(), 1u);
    EXPECT_DOUBLE_EQ(sigma[0], 0.0);
}

TEST(height_features, query_against_reference) {
    point_cloud reference;
    for (int i = 0; i < 10; ++i) reference.push_back({0.0, 0.0, 0.2 * i});
    point_cloud query{{{0.0, 0.0, 0.5}}};
    const auto sigma = height_variation(query, reference, 4);
    ASSERT_EQ(sigma.size(), 1u);
    EXPECT_GT(sigma[0], 0.1);
}

TEST(projection, channel_counts) {
    EXPECT_EQ(projection_channels(projection_method::hap), 7u);
    EXPECT_EQ(projection_channels(projection_method::three_view), 6u);
    EXPECT_EQ(projection_channels(projection_method::bev), 1u);
    EXPECT_EQ(projection_channels(projection_method::range_view), 2u);
    EXPECT_EQ(projection_channels(projection_method::density_aware), 2u);
}

TEST(projection, names) {
    EXPECT_STREQ(to_string(projection_method::hap), "HAP");
    EXPECT_STREQ(to_string(projection_method::bev), "BEV");
}

class projection_shape_test : public ::testing::TestWithParam<projection_method> {};

TEST_P(projection_shape_test, output_shape_correct) {
    rng r{6};
    point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 100);
    projection_config cfg;
    cfg.method = GetParam();
    cfg.target_points = 100;
    const tensor out = project_cluster(cluster, cluster.centroid(), cfg);
    ASSERT_EQ(out.rank(), 4u);
    EXPECT_EQ(out.dim(0), 1u);
    EXPECT_EQ(out.dim(1), 10u);
    EXPECT_EQ(out.dim(2), 10u);
    EXPECT_EQ(out.dim(3), projection_channels(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(all_methods, projection_shape_test,
                         ::testing::Values(projection_method::hap,
                                           projection_method::three_view,
                                           projection_method::bev,
                                           projection_method::range_view,
                                           projection_method::density_aware));

TEST(projection, views_are_normalized) {
    rng r{7};
    point_cloud cluster = synthetic_person_cluster(r, {30.0, 1.0, -3.0}, 144);
    projection_config cfg;
    cfg.target_points = 144;
    const tensor out = project_cluster(cluster, cluster.centroid(), cfg);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_GE(out[i], -1.5f);
        EXPECT_LE(out[i], 1.5f);
    }
}

TEST(projection, rejects_non_square_target) {
    rng r{8};
    point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 50);
    projection_config cfg;
    cfg.target_points = 50;  // not a perfect square
    EXPECT_THROW(project_cluster(cluster, cluster.centroid(), cfg), invalid_argument_error);
}

TEST(projection, rejects_wrong_size_for_views) {
    rng r{9};
    point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 50);
    projection_config cfg;
    cfg.target_points = 100;  // cluster not up-sampled
    EXPECT_THROW(project_cluster(cluster, cluster.centroid(), cfg), invalid_argument_error);
}

TEST(projection, sigma_span_must_align) {
    rng r{10};
    point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 100);
    projection_config cfg;
    cfg.target_points = 100;
    const std::vector<double> wrong_sigma(50, 0.0);
    EXPECT_THROW(project_cluster(cluster, cluster.centroid(), cfg, wrong_sigma),
                 invalid_argument_error);
}

TEST(projection, bev_counts_points) {
    // All points in the same cell: one cell holds the full count.
    point_cloud cluster;
    for (int i = 0; i < 16; ++i) cluster.push_back({20.0, 0.0, -2.0});
    projection_config cfg;
    cfg.method = projection_method::bev;
    cfg.target_points = 16;
    const tensor out = project_cluster(cluster, {20.0, 0.0, -2.0}, cfg);
    float total = 0.0f;
    float peak = 0.0f;
    for (std::size_t i = 0; i < out.size(); ++i) {
        total += out[i];
        peak = std::max(peak, out[i]);
    }
    EXPECT_FLOAT_EQ(total, 16.0f);
    EXPECT_FLOAT_EQ(peak, 16.0f);
}

TEST(projection, translation_invariance_of_views) {
    // Same cluster shape at two walkway positions produces identical
    // HAP tensors when anchored at the respective centroids (up to the
    // z channel, which is ground-relative and thus also identical).
    rng r{11};
    const point_cloud base = synthetic_person_cluster(r, {15.0, -1.0, -3.0}, 100);
    const point_cloud moved = base.translated({7.0, 2.0, 0.0});
    projection_config cfg;
    cfg.target_points = 100;
    const tensor a = project_cluster(base, base.centroid(), cfg);
    const tensor b = project_cluster(moved, moved.centroid(), cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-5f);
}

TEST(slice_features, feature_count_matches_config) {
    slice_feature_config cfg;
    rng r{12};
    const point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0});
    const tensor f = slice_features(cluster, cfg);
    EXPECT_EQ(f.size(), cfg.feature_count());
    EXPECT_EQ(f.dim(0), 1u);

    slice_feature_config with_globals = cfg;
    with_globals.include_global_aggregates = true;
    EXPECT_EQ(slice_features(cluster, with_globals).size(), cfg.feature_count() + 4);
}

TEST(slice_features, empty_cluster_is_zero) {
    const tensor f = slice_features(point_cloud{});
    for (std::size_t i = 0; i < f.size(); ++i) EXPECT_EQ(f[i], 0.0f);
}

TEST(slice_features, tall_cluster_fills_high_slices) {
    slice_feature_config cfg;
    point_cloud tall;
    for (int i = 0; i < 50; ++i) tall.push_back({20.0, 0.0, -3.0 + 0.034 * i});  // up to 1.7
    point_cloud squat;
    for (int i = 0; i < 50; ++i) squat.push_back({20.0, 0.0, -3.0 + 0.008 * i});  // up to 0.4
    const tensor tall_f = slice_features(tall, cfg);
    const tensor squat_f = slice_features(squat, cfg);
    // Count feature of the slice covering 1.4-1.6 m (slice 7, feature 0).
    const std::size_t high_slice_count_index = 7 * 5;
    EXPECT_GT(tall_f[high_slice_count_index], 0.0f);
    EXPECT_FLOAT_EQ(squat_f[high_slice_count_index], 0.0f);
}

TEST(slice_features, circularity_distinguishes_shapes) {
    slice_feature_config cfg;
    rng r{13};
    // Circular cross-section at slice 2 (0.4-0.6 m).
    point_cloud circular;
    for (int i = 0; i < 100; ++i) {
        const double a = r.uniform(0.0, 6.283);
        circular.push_back({20.0 + 0.3 * std::cos(a), 0.3 * std::sin(a), -2.5});
    }
    // Elongated line at the same height.
    point_cloud elongated;
    for (int i = 0; i < 100; ++i) {
        elongated.push_back({20.0 + r.uniform(-1.0, 1.0), 0.02 * r.normal(), -2.5});
    }
    const std::size_t slice = 2;
    const std::size_t circularity_index = slice * 5 + 4;
    const tensor cf = slice_features(circular, cfg);
    const tensor ef = slice_features(elongated, cfg);
    EXPECT_GT(cf[circularity_index], 0.5f);
    EXPECT_LT(ef[circularity_index], 0.1f);
}

TEST(pipeline, extract_shape_matches_config) {
    rng r{14};
    cnn_feature_config cfg;
    cfg.upsample.target_points = 169;
    cfg.projection.target_points = 169;
    cnn_feature_extractor extractor{cfg, make_pool(r)};
    EXPECT_EQ(extractor.sample_shape(), (std::vector<std::size_t>{13, 13, 7}));

    const point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 40);
    const tensor out = extractor.extract(cluster, r);
    EXPECT_EQ(out.shape(), (std::vector<std::size_t>{1, 13, 13, 7}));
}

TEST(pipeline, sigma_zero_on_padding) {
    rng r{15};
    cnn_feature_config cfg;
    cfg.upsample.target_points = 400;
    cfg.projection.target_points = 400;
    cnn_feature_extractor extractor{cfg, make_pool(r)};
    // A tiny cluster: nearly all pixels are padding, whose sigma channel
    // (channel 2 of the top view) must be exactly zero.
    const point_cloud cluster = synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 10);
    const tensor out = extractor.extract(cluster, r);
    std::size_t zero_sigma = 0;
    for (std::size_t h = 0; h < 20; ++h) {
        for (std::size_t w = 0; w < 20; ++w) {
            if (out.at(0, h, w, 2) == 0.0f) ++zero_sigma;
        }
    }
    EXPECT_GE(zero_sigma, 385u);
}

TEST(cluster_dataset_type, add_and_count) {
    cluster_dataset data;
    data.add(point_cloud{{{1.0, 0.0, 0.0}}}, label_human);
    data.add(point_cloud{{{2.0, 0.0, 0.0}}}, label_object);
    data.add(point_cloud{{{3.0, 0.0, 0.0}}}, label_human);
    EXPECT_EQ(data.size(), 3u);
    EXPECT_EQ(data.count_label(label_human), 2u);
    EXPECT_EQ(data.count_label(label_object), 1u);
}


TEST(projection, range_view_encodes_depth) {
    // Points at a known range: the RV depth channel must carry ~that range.
    point_cloud cluster;
    for (int i = 0; i < 25; ++i) cluster.push_back({20.0, 0.0, -2.0});
    projection_config cfg;
    cfg.method = projection_method::range_view;
    cfg.target_points = 25;
    const tensor out = project_cluster(cluster, {20.0, 0.0, -2.0}, cfg);
    float max_depth = 0.0f;
    float total_count = 0.0f;
    for (std::size_t h = 0; h < 5; ++h) {
        for (std::size_t w = 0; w < 5; ++w) {
            max_depth = std::max(max_depth, out.at(0, h, w, 0));
            total_count += out.at(0, h, w, 1);
        }
    }
    EXPECT_NEAR(max_depth, std::hypot(20.0, 2.0), 0.2);
    EXPECT_FLOAT_EQ(total_count, 25.0f);
}

TEST(projection, density_aware_mean_height) {
    // A column of points 1 m above ground in one cell: DA channel 1 must
    // report that mean height.
    point_cloud cluster;
    for (int i = 0; i < 16; ++i) cluster.push_back({20.0, 0.0, -2.0});
    projection_config cfg;
    cfg.method = projection_method::density_aware;
    cfg.target_points = 16;
    const tensor out = project_cluster(cluster, {20.0, 0.0, -2.0}, cfg);
    float best_height = 0.0f;
    for (std::size_t i = 0; i < out.size(); i += 2) {
        if (out[i] > 0.0f) best_height = out[i + 1];
    }
    EXPECT_NEAR(best_height, 1.0f, 1e-5f);
}

TEST(projection, deterministic_given_same_input) {
    rng r{44};
    const point_cloud cluster = synthetic_person_cluster(r, {22.0, 0.5, -3.0}, 100);
    projection_config cfg;
    cfg.target_points = 100;
    const tensor a = project_cluster(cluster, cluster.centroid(), cfg);
    const tensor b = project_cluster(cluster, cluster.centroid(), cfg);
    EXPECT_EQ(a, b);
}

TEST(projection, xy_clamp_limits_magnitudes) {
    // Points 20 m from the anchor clamp to +-1 after normalization.
    point_cloud cluster;
    for (int i = 0; i < 9; ++i) cluster.push_back({40.0, 8.0, -2.0});
    projection_config cfg;
    cfg.target_points = 9;
    const tensor out = project_cluster(cluster, {20.0, 0.0, -2.0}, cfg);
    for (std::size_t h = 0; h < 3; ++h) {
        for (std::size_t w = 0; w < 3; ++w) {
            EXPECT_FLOAT_EQ(out.at(0, h, w, 0), 1.0f);  // x channel clamped
            EXPECT_FLOAT_EQ(out.at(0, h, w, 1), 1.0f);  // y channel clamped
        }
    }
}

TEST(pipeline, three_view_shape) {
    rng r{45};
    cnn_feature_config cfg;
    cfg.upsample.target_points = 100;
    cfg.projection.target_points = 100;
    cfg.projection.method = projection_method::three_view;
    cnn_feature_extractor extractor{cfg, make_pool(r)};
    EXPECT_EQ(extractor.sample_shape(), (std::vector<std::size_t>{10, 10, 6}));
    const tensor out = extractor.extract(synthetic_person_cluster(r, {20.0, 0.0, -3.0}, 30), r);
    EXPECT_EQ(out.dim(3), 6u);
}

// ---- HAP image vs an in-test reference ------------------------------------

bool same_bytes(const tensor& a, const tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The view projection spelled out the slow, obvious way: a stable sort
/// on (hypot radius, z), so ties keep cloud order, then one pixel per
/// sorted point with the documented channel layout and normalization.
tensor reference_views(const point_cloud& cloud, const vec3& anchor,
                       const projection_config& cfg, std::span<const double> sigma_in) {
    const bool hap = cfg.method == projection_method::hap;
    std::vector<std::size_t> order(cloud.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto radius = [&](std::size_t i) {
        return std::hypot(cloud[i].x - anchor.x, cloud[i].y - anchor.y);
    };
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (radius(a) != radius(b)) return radius(a) < radius(b);
        return cloud[a].z < cloud[b].z;
    });
    point_cloud sorted;
    for (std::size_t i : order) sorted.push_back(cloud[i]);
    std::vector<double> sigma;
    if (sigma_in.empty()) {
        sigma = height_variation(sorted, cfg.knn_k);
    } else {
        for (std::size_t i : order) sigma.push_back(sigma_in[i]);
    }

    const auto d = static_cast<std::size_t>(std::lround(std::sqrt(cloud.size())));
    tensor out{{1, d, d, hap ? 7u : 6u}};
    const auto xy = [&](double v) {
        return static_cast<float>(std::clamp(v, -cfg.xy_clamp, cfg.xy_clamp)) *
               static_cast<float>(1.0 / cfg.xy_clamp);
    };
    for (std::size_t j = 0; j < sorted.size(); ++j) {
        const float x = xy(sorted[j].x - anchor.x);
        const float y = xy(sorted[j].y - anchor.y);
        const float z = static_cast<float>(sorted[j].z - cfg.ground_z) * (1.0f / 2.2f);
        std::vector<float> pixel{x, y};
        if (hap) pixel.push_back(static_cast<float>(sigma[j]) * (1.0f / 0.8f));
        pixel.insert(pixel.end(), {y, z, x, z});
        for (std::size_t c = 0; c < pixel.size(); ++c) out.at(0, j / d, j % d, c) = pixel[c];
    }
    return out;
}

/// 144 points full of (radius, z) ties: dyadic offsets mirrored into all
/// four quadrants around the anchor at equal height (exactly equal hypot
/// radii, different x/y), plus one pool point repeated as padding.
point_cloud tied_cloud(const vec3& anchor, rng& r) {
    point_cloud cloud;
    for (int i = 0; i < 24; ++i) {
        const double dx = 0.0625 * static_cast<double>(r.uniform_index(12));
        const double dy = 0.0625 * static_cast<double>(r.uniform_index(12));
        const double z = -3.0 + 0.125 * static_cast<double>(r.uniform_index(14));
        for (const double sx : {1.0, -1.0}) {
            for (const double sy : {1.0, -1.0}) {
                cloud.push_back({anchor.x + sx * dx, anchor.y + sy * dy, z});
            }
        }
    }
    while (cloud.size() < 144) cloud.push_back({27.5, -1.25, -2.5});
    return cloud;
}

TEST(projection, views_match_stable_sort_reference_on_ties) {
    const vec3 anchor{20.0, 0.5, -3.0};
    for (const projection_method method :
         {projection_method::hap, projection_method::three_view}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            rng r{seed};
            const point_cloud cloud = tied_cloud(anchor, r);
            std::vector<double> sigma(cloud.size());
            for (double& v : sigma) v = r.uniform(0.0, 0.8);
            projection_config cfg;
            cfg.method = method;
            cfg.target_points = cloud.size();
            EXPECT_TRUE(same_bytes(project_cluster(cloud, anchor, cfg, sigma),
                                   reference_views(cloud, anchor, cfg, sigma)))
                << to_string(method) << " sigma passed, seed " << seed;
            EXPECT_TRUE(same_bytes(project_cluster(cloud, anchor, cfg),
                                   reference_views(cloud, anchor, cfg, {})))
                << to_string(method) << " sigma fallback, seed " << seed;
        }
    }
}

/// The featurizer's earlier sigma path: a copy of the genuine points of
/// `padded`, each measured against the cluster.
tensor copied_points_extract(const point_cloud& cluster, const cnn_feature_config& cfg,
                        const object_pool& pool, rng& random) {
    const point_cloud padded = upsample_cluster(cluster, cfg.upsample, pool, random);
    point_cloud real_points;
    for (std::size_t i = 0; i < std::min(cluster.size(), padded.size()); ++i) {
        real_points.push_back(padded[i]);
    }
    std::vector<double> sigma = height_variation(real_points, cluster, cfg.projection.knn_k);
    sigma.resize(padded.size(), 0.0);
    return project_cluster(padded, cluster.centroid(), cfg.projection, sigma);
}

TEST(pipeline, extract_matches_copied_points_sigma_path) {
    rng r{47};
    cnn_feature_config cfg;
    cfg.upsample.target_points = 169;
    cfg.projection.target_points = 169;
    const object_pool pool = make_pool(r);
    const cnn_feature_extractor extractor{cfg, pool};
    // Padded (60 < 169), exactly full (down-sample branch, a permutation)
    // and down-sampled (200 > 169) clusters.
    for (const std::size_t points : {std::size_t{60}, std::size_t{169}, std::size_t{200}}) {
        const point_cloud cluster = synthetic_person_cluster(r, {21.0, 0.5, -3.0}, points);
        rng a{points};
        rng b{points};
        EXPECT_TRUE(same_bytes(extractor.extract(cluster, a),
                               copied_points_extract(cluster, cfg, pool, b)))
            << points << " points";
    }
}

}  // namespace
}  // namespace hawc
