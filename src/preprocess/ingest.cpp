#include "preprocess/ingest.hpp"

#include <cmath>

namespace hawc {

namespace {

bool finite_point(const vec3& p) {
    return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

}  // namespace

point_cloud ingest(const point_cloud& raw, const roi_config& roi,
                   const ground_filter_config& ground) {
    ingest_stats unused;
    return ingest(raw, roi, ground, roi.z_min_m, unused);
}

point_cloud ingest(const point_cloud& raw, const roi_config& roi,
                   const ground_filter_config& ground, double floor_z,
                   ingest_stats& stats) {
    stats.raw_points = raw.size();
    stats.non_finite = 0;
    stats.below_floor = 0;
    // One fused pass: crop + ground threshold + health counts. The crop
    // visits every raw point anyway, so validation is free here, where a
    // separate sweep of a full outdoor scan is not.
    point_cloud out;
    for (const auto& p : raw) {
        if (!finite_point(p)) {
            ++stats.non_finite;
            continue;
        }
        if (p.z < floor_z) ++stats.below_floor;
        if (p.x >= roi.x_min_m && p.x <= roi.x_max_m && p.y >= roi.y_min_m &&
            p.y <= roi.y_max_m && p.z >= roi.z_min_m && p.z <= roi.z_max_m &&
            p.z >= ground.z_min_m) {
            out.push_back(p);
        }
    }
    return out;
}

}  // namespace hawc
