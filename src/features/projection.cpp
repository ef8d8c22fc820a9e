#include "features/projection.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "features/height_features.hpp"

namespace hawc {

const char* to_string(projection_method method) {
    switch (method) {
        case projection_method::hap: return "HAP";
        case projection_method::three_view: return "TV";
        case projection_method::bev: return "BEV";
        case projection_method::range_view: return "RV";
        case projection_method::density_aware: return "DA";
    }
    return "unknown";
}

std::size_t projection_channels(projection_method method) {
    switch (method) {
        case projection_method::hap: return 7;
        case projection_method::three_view: return 6;
        case projection_method::bev: return 1;
        case projection_method::range_view: return 2;
        case projection_method::density_aware: return 2;
    }
    return 0;
}

namespace {

/// Reshape-based views (HAP and TV). Points carry normalized coords.
tensor project_views(const point_cloud& cloud, const vec3& anchor,
                     const projection_config& config, bool with_height_channel,
                     std::span<const double> sigma_in) {
    const auto d = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(config.target_points))));
    HAWC_REQUIRE(d * d == config.target_points, "target_points must be a perfect square");
    HAWC_REQUIRE(cloud.size() == config.target_points, "cluster must be up-sampled first");

    // Canonical anchor order: the total order (radius, z, index), so the
    // image never depends on how a library's sort arranges ties. Each
    // key is computed once; a comparator calling std::hypot would pay
    // for it twice per comparison.
    struct sort_key {
        double radius;
        double z;
        std::size_t index;
    };
    std::vector<sort_key> keys(cloud.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = {std::hypot(cloud[i].x - anchor.x, cloud[i].y - anchor.y), cloud[i].z, i};
    }
    std::sort(keys.begin(), keys.end(), [](const sort_key& a, const sort_key& b) {
        if (a.radius != b.radius) return a.radius < b.radius;
        if (a.z != b.z) return a.z < b.z;
        return a.index < b.index;
    });

    std::vector<double> fallback_sigma;
    if (sigma_in.empty()) {
        // Fall back: height variation over the whole up-sampled cloud, in
        // sorted order, scattered back to cloud order.
        point_cloud sorted;
        sorted.reserve(cloud.size());
        for (const sort_key& key : keys) sorted.push_back(cloud[key.index]);
        const std::vector<double> sorted_sigma = height_variation(sorted, config.knn_k);
        fallback_sigma.resize(cloud.size());
        for (std::size_t j = 0; j < keys.size(); ++j) {
            fallback_sigma[keys[j].index] = sorted_sigma[j];
        }
        sigma_in = fallback_sigma;
    } else {
        HAWC_REQUIRE(sigma_in.size() == cloud.size(), "sigma must align with the cloud");
    }

    const std::size_t channels = with_height_channel ? 7 : 6;
    tensor out{{1, d, d, channels}};

    // Channel normalization: bring every view into roughly [-1, 1] so
    // the first conv layer sees comparable scales (and the int8 input
    // quantization wastes no range).
    const float xy_scale = static_cast<float>(1.0 / config.xy_clamp);
    constexpr float z_scale = 1.0f / 2.2f;      // max plausible stature
    constexpr float sigma_scale = 1.0f / 0.8f;  // typical height-variation cap

    for (std::size_t j = 0; j < keys.size(); ++j) {
        const std::size_t i = keys[j].index;
        const vec3& p = cloud[i];
        const float x =
            static_cast<float>(std::clamp(p.x - anchor.x, -config.xy_clamp, config.xy_clamp)) *
            xy_scale;
        const float y =
            static_cast<float>(std::clamp(p.y - anchor.y, -config.xy_clamp, config.xy_clamp)) *
            xy_scale;
        const float z = static_cast<float>(p.z - config.ground_z) * z_scale;
        const std::size_t row = j / d;
        const std::size_t col = j % d;
        std::size_t c = 0;
        // Top view (xy plane), height-augmented for HAP.
        out.at(0, row, col, c++) = x;
        out.at(0, row, col, c++) = y;
        if (with_height_channel) {
            out.at(0, row, col, c++) = static_cast<float>(sigma_in[i]) * sigma_scale;
        }
        // Front view (yz plane).
        out.at(0, row, col, c++) = y;
        out.at(0, row, col, c++) = z;
        // Side view (xz plane).
        out.at(0, row, col, c++) = x;
        out.at(0, row, col, c++) = z;
    }
    return out;
}

struct grid_extent {
    double lo_a = 0.0, hi_a = 1.0, lo_b = 0.0, hi_b = 1.0;

    std::pair<std::size_t, std::size_t> cell(double a, double b, std::size_t d) const {
        const double fa = (a - lo_a) / std::max(hi_a - lo_a, 1e-9);
        const double fb = (b - lo_b) / std::max(hi_b - lo_b, 1e-9);
        const auto ia = std::min<std::size_t>(
            d - 1, static_cast<std::size_t>(std::max(0.0, fa * static_cast<double>(d))));
        const auto ib = std::min<std::size_t>(
            d - 1, static_cast<std::size_t>(std::max(0.0, fb * static_cast<double>(d))));
        return {ia, ib};
    }
};

/// Raster views (BEV, RV, DA): points binned on a D x D grid.
tensor project_raster(const point_cloud& cloud, const vec3& anchor,
                      const projection_config& config) {
    const auto d = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(config.target_points))));
    HAWC_REQUIRE(d * d == config.target_points, "target_points must be a perfect square");
    const std::size_t channels = projection_channels(config.method);
    tensor out{{1, d, d, channels}};

    // Fixed metric extents so cell size is consistent across clusters:
    // +-3 m around the anchor covers any human plus its padding context.
    constexpr double half_extent = 3.0;

    switch (config.method) {
        case projection_method::bev: {
            // Occupancy count over the xy plane — no vertical information,
            // the weakness the paper calls out.
            grid_extent g{-half_extent, half_extent, -half_extent, half_extent};
            for (const auto& p : cloud) {
                const auto [r, c] = g.cell(p.x - anchor.x, p.y - anchor.y, d);
                out.at(0, r, c, 0) += 1.0f;
            }
            break;
        }
        case projection_method::range_view: {
            // Spherical depth image: azimuth x elevation around the anchor
            // direction; channels = nearest range, occupancy.
            const double anchor_az = std::atan2(anchor.y, anchor.x);
            grid_extent g{-0.2, 0.2, -0.6, 0.3};  // radians around anchor
            for (const auto& p : cloud) {
                const double range = p.norm();
                if (range <= 0.0) continue;
                const double az = std::atan2(p.y, p.x) - anchor_az;
                const double el = std::asin(std::clamp(p.z / range, -1.0, 1.0));
                const auto [r, c] = g.cell(az, el, d);
                float& depth = out.at(0, r, c, 0);
                if (depth == 0.0f || range < static_cast<double>(depth)) {
                    depth = static_cast<float>(range);
                }
                out.at(0, r, c, 1) += 1.0f;
            }
            break;
        }
        case projection_method::density_aware: {
            // Density set-abstraction style: per-cell point density and
            // mean height — spatial detail inside a cell is lost.
            grid_extent g{-half_extent, half_extent, -half_extent, half_extent};
            tensor z_sum{{1, d, d, 1}};
            for (const auto& p : cloud) {
                const auto [r, c] = g.cell(p.x - anchor.x, p.y - anchor.y, d);
                out.at(0, r, c, 0) += 1.0f;
                z_sum.at(0, r, c, 0) += static_cast<float>(p.z - config.ground_z);
            }
            for (std::size_t r = 0; r < d; ++r) {
                for (std::size_t c = 0; c < d; ++c) {
                    const float count = out.at(0, r, c, 0);
                    out.at(0, r, c, 1) = count > 0.0f ? z_sum.at(0, r, c, 0) / count : 0.0f;
                }
            }
            break;
        }
        default:
            throw invalid_argument_error{"raster projection called with a view method"};
    }
    return out;
}

}  // namespace

tensor project_cluster(const point_cloud& upsampled, const vec3& anchor,
                       const projection_config& config, std::span<const double> sigma) {
    switch (config.method) {
        case projection_method::hap:
            return project_views(upsampled, anchor, config, /*with_height_channel=*/true, sigma);
        case projection_method::three_view:
            return project_views(upsampled, anchor, config, /*with_height_channel=*/false,
                                 sigma);
        default:
            return project_raster(upsampled, anchor, config);
    }
}

}  // namespace hawc
