// Tests for ingestion: ROI cropping, ground segmentation and the
// finiteness guarantee, all through the one-pass ingest().

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "preprocess/ingest.hpp"

namespace hawc {
namespace {

// A ground threshold below the default ROI floor (z = -3), so only the
// crop acts.
constexpr ground_filter_config no_ground{-10.0};

// An ROI that holds every finite point, so only the ground threshold acts.
roi_config everywhere() {
    constexpr double far = 1e9;
    return {-far, far, -far, far, -far, far};
}

TEST(roi, crops_outside_x_range) {
    point_cloud raw{{{5.0, 0.0, -1.0}, {20.0, 0.0, -1.0}, {40.0, 0.0, -1.0}}};
    const point_cloud cropped = ingest(raw, {}, no_ground);
    ASSERT_EQ(cropped.size(), 1u);
    EXPECT_DOUBLE_EQ(cropped[0].x, 20.0);
}

TEST(roi, crops_outside_y_range) {
    point_cloud raw{{{20.0, -3.0, -1.0}, {20.0, 0.0, -1.0}, {20.0, 3.0, -1.0}}};
    EXPECT_EQ(ingest(raw, {}, no_ground).size(), 1u);
}

TEST(roi, boundary_points_kept) {
    const roi_config roi;
    point_cloud raw{{{roi.x_min_m, roi.y_min_m, roi.z_min_m},
                     {roi.x_max_m, roi.y_max_m, roi.z_max_m}}};
    EXPECT_EQ(ingest(raw, roi, no_ground).size(), 2u);
}

TEST(roi, custom_config) {
    roi_config roi;
    roi.x_min_m = 0.0;
    roi.x_max_m = 100.0;
    roi.y_min_m = -50.0;
    roi.y_max_m = 50.0;
    point_cloud raw{{{50.0, 20.0, -1.0}}};
    EXPECT_EQ(ingest(raw, roi, no_ground).size(), 1u);
}

TEST(ground_filter, removes_low_points) {
    // The paper's rule: ground noise extends ~0.4 m above the ground at
    // z = -3, so everything below z = -2.6 is dropped.
    point_cloud cloud{{{20.0, 0.0, -2.9}, {20.0, 0.0, -2.61}, {20.0, 0.0, -2.6},
                       {20.0, 0.0, -1.0}}};
    const point_cloud filtered = ingest(cloud, everywhere());
    ASSERT_EQ(filtered.size(), 2u);
    EXPECT_DOUBLE_EQ(filtered[0].z, -2.6);
}

TEST(ground_filter, custom_threshold) {
    ground_filter_config cfg;
    cfg.z_min_m = -1.0;
    point_cloud cloud{{{20.0, 0.0, -2.0}, {20.0, 0.0, -0.5}}};
    EXPECT_EQ(ingest(cloud, everywhere(), cfg).size(), 1u);
}

TEST(ingest, composition_of_crop_and_ground) {
    point_cloud raw;
    raw.push_back({20.0, 0.0, -2.9});   // ground noise inside ROI
    raw.push_back({20.0, 0.0, -1.5});   // valid
    raw.push_back({50.0, 0.0, -1.5});   // outside ROI
    raw.push_back({20.0, 4.0, -1.5});   // outside walkway width
    const point_cloud result = ingest(raw);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_DOUBLE_EQ(result[0].z, -1.5);
}

TEST(sanitize, drop_non_finite_removes_nan_and_inf) {
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    point_cloud raw{{{20.0, 0.0, -1.0},
                     {nan, 0.0, -1.0},
                     {20.0, inf, -1.0},
                     {20.0, 0.0, -inf},
                     {nan, nan, nan},
                     {21.0, 1.0, -1.5}}};
    const point_cloud clean = ingest(raw, everywhere(), no_ground);
    ASSERT_EQ(clean.size(), 2u);
    EXPECT_DOUBLE_EQ(clean[0].x, 20.0);
    EXPECT_DOUBLE_EQ(clean[1].x, 21.0);
}

TEST(sanitize, drop_non_finite_keeps_finite_cloud_intact) {
    point_cloud raw{{{20.0, 0.0, -1.0}, {21.0, 1.0, -2.0}}};
    EXPECT_EQ(ingest(raw, everywhere(), no_ground).size(), 2u);
}

TEST(roi, non_finite_points_never_pass_crop) {
    // Regression: a NaN coordinate must not leak through the ROI crop into
    // clustering, where it would poison every distance computation.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    point_cloud raw{{{nan, 0.0, -1.0}, {20.0, nan, -1.0}, {20.0, 0.0, nan},
                     {inf, 0.0, -1.0}, {20.0, 0.0, -1.0}}};
    const point_cloud cropped = ingest(raw, {}, no_ground);
    ASSERT_EQ(cropped.size(), 1u);
    EXPECT_TRUE(std::isfinite(cropped[0].x));
}

TEST(ingest, non_finite_points_filtered_end_to_end) {
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    point_cloud raw;
    raw.push_back({20.0, 0.0, -1.5});  // valid
    raw.push_back({20.0, 0.0, nan});   // poisoned z
    raw.push_back({nan, nan, nan});    // fully poisoned
    const point_cloud result = ingest(raw);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_DOUBLE_EQ(result[0].x, 20.0);
}

TEST(ingest, empty_input) {
    EXPECT_TRUE(ingest(point_cloud{}).empty());
}

TEST(ingest, all_filtered) {
    point_cloud raw{{{1.0, 0.0, -1.0}, {20.0, 0.0, -2.99}}};
    EXPECT_TRUE(ingest(raw).empty());
}

TEST(ingest, validating_pass_matches_plain_ingest) {
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    const roi_config roi;
    const ground_filter_config ground;
    const double floor_z = -2.8;
    point_cloud raw;
    raw.push_back({20.0, 0.0, -1.5});   // kept
    raw.push_back({nan, 0.0, -1.5});    // non-finite
    raw.push_back({13.0, 1.0, -2.0});   // kept
    raw.push_back({50.0, 0.0, -1.5});   // outside ROI in x
    raw.push_back({20.0, 0.0, -2.7});   // below ground, above the floor
    raw.push_back({20.0, 0.0, inf});    // non-finite
    raw.push_back({20.0, 0.0, -2.9});   // below ground and below the floor
    raw.push_back({20.0, 4.0, -1.0});   // outside ROI in y
    raw.push_back({40.0, 0.0, -5.0});   // outside ROI, below the floor
    raw.push_back({34.0, -2.0, 0.0});   // kept

    ingest_stats stats;
    const point_cloud validated = ingest(raw, roi, ground, floor_z, stats);
    const point_cloud plain = ingest(raw, roi, ground);

    ASSERT_EQ(validated.size(), 3u);
    ASSERT_EQ(plain.size(), validated.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i], validated[i]) << "point " << i;
    }
    EXPECT_DOUBLE_EQ(validated[0].x, 20.0);
    EXPECT_DOUBLE_EQ(validated[1].x, 13.0);
    EXPECT_DOUBLE_EQ(validated[2].x, 34.0);

    EXPECT_EQ(stats.raw_points, raw.size());
    EXPECT_EQ(stats.non_finite, 2u);
    EXPECT_EQ(stats.below_floor, 2u);
}

}  // namespace
}  // namespace hawc
