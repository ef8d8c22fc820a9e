#pragma once

// Point cloud ingestion: the ROI crop and rule-based ground segmentation
// HAWC-CC applies to every raw capture before clustering (paper Sec. III).

#include "pointcloud/point_cloud.hpp"

namespace hawc {

/// Region-of-interest crop. Defaults are the paper's deployment: targets
/// between 12 m and 35 m from the sensor in x (closer points fall in the
/// pole's shadow, farther ones reflect too weakly) and the full 5 m-wide
/// walkway in y.
struct roi_config {
    double x_min_m = 12.0;
    double x_max_m = 35.0;
    double y_min_m = -2.5;
    double y_max_m = 2.5;
    double z_min_m = -3.0;   // sensor detection floor (ground level)
    double z_max_m = 0.5;
};

/// Capture-health statistics gathered during ingestion, for callers
/// (like the streaming supervisor) that validate every frame. Collected
/// inside the crop pass so validation costs no extra sweep of the raw
/// cloud.
struct ingest_stats {
    std::size_t raw_points = 0;
    std::size_t non_finite = 0;   // NaN/Inf coordinates, always dropped
    std::size_t below_floor = 0;  // finite returns deeper than `floor_z`
};

/// Rule-based ground segmentation (paper Sec. III): ground noise extends
/// about 0.4 m above the ground plane at z = -3, so points with
/// z < z_min = -2.6 are discarded.
struct ground_filter_config {
    double z_min_m = -2.6;
};

/// Full ingestion, one pass over the raw cloud: keep the points that are
/// finite, inside the ROI box and at or above the ground threshold, in
/// input order. Real sensors emit NaN/Inf returns under fault conditions
/// (saturation, crosstalk, truncated UDP packets); letting them through
/// would poison neighbour queries, centroid and bounds geometry
/// downstream, so ingestion guarantees finiteness explicitly rather than
/// relying on NaN comparison semantics.
point_cloud ingest(const point_cloud& raw, const roi_config& roi = {},
                   const ground_filter_config& ground = {});

/// Validating ingestion: same result as ingest(), plus capture-health
/// counts taken in the same pass. `floor_z` is the plausibility floor
/// for below_floor (a pole-mounted sensor cannot see through the
/// walkway, so returns deeper than this indicate range noise).
point_cloud ingest(const point_cloud& raw, const roi_config& roi,
                   const ground_filter_config& ground, double floor_z,
                   ingest_stats& stats);

}  // namespace hawc
