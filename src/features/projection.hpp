#pragma once

// Projection of an up-sampled 3D cluster into a fixed-size 2D image for
// the CNN. Implements the paper's height-aware projection (HAP) and the
// four Figure-9 baselines: three-view (TV, HAP without the height
// channel), bird-eye-view (BEV), range-view (RV), and density-aware (DA).

#include <span>

#include "nn/tensor.hpp"
#include "pointcloud/point_cloud.hpp"

namespace hawc {

enum class projection_method { hap, three_view, bev, range_view, density_aware };

const char* to_string(projection_method method);

/// Image channels a method produces (the CNN input depth):
///   hap = 7 (top x,y,sigma + front y,z + side x,z)
///   three_view = 6, bev = 1, range_view = 2, density_aware = 2.
std::size_t projection_channels(projection_method method);

struct projection_config {
    projection_method method = projection_method::hap;
    std::size_t target_points = 324;  // must be a perfect square
    std::size_t knn_k = 8;            // neighbours for height variation
    double ground_z = -3.0;           // sensor frame ground level

    /// Centered x/y are clamped to +-xy_clamp metres: padding points
    /// drawn from the object pool can sit tens of metres from the
    /// cluster, and unbounded offsets would drown the sub-metre human
    /// structure the classifier needs.
    double xy_clamp = 3.0;
};

/// Project one up-sampled cluster to a (1, D, D, C) tensor, where
/// D = sqrt(target_points) and C = projection_channels(method).
///
/// `sigma` carries per-point height variation aligned with `upsampled`;
/// pass an empty span to have it computed internally over the whole
/// up-sampled cloud. The feature pipeline computes it on the original
/// cluster only and zero-fills the padding, so the channel marks genuine
/// structure rather than sampling noise.
///
/// `anchor` is the pre-up-sampling cluster centroid: x and y are
/// expressed relative to it (position invariance); z is expressed
/// relative to the ground plane (height is the discriminative feature
/// and must stay absolute).
///
/// For hap/three_view the point list is first sorted by distance from
/// the anchor (cluster points first, padding noise last) so the reshaped
/// image has a stable spatial layout. The order is total — xy radius,
/// then height, then position in `upsampled` — so the image does not
/// depend on how the standard library's sort arranges ties.
tensor project_cluster(const point_cloud& upsampled, const vec3& anchor,
                       const projection_config& config,
                       std::span<const double> sigma = {});

}  // namespace hawc
