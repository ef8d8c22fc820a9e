#include "features/pipeline.hpp"

#include <cmath>

#include "features/height_features.hpp"

namespace hawc {

tensor cnn_feature_extractor::extract(const point_cloud& cluster, rng& random) const {
    const vec3 anchor = cluster.empty() ? vec3{} : cluster.centroid();
    const point_cloud padded = upsample_cluster(cluster, config_.upsample, pool_, random);

    // Height variation on genuine cluster structure only. Padding is
    // appended after the original points, so when the cluster was padded
    // padded[0..n) *is* the cluster and its sigma is measured on it
    // directly; the padding gets sigma = 0. A down-sampled cluster is all
    // genuine points, each measured against the full cluster.
    std::vector<double> sigma =
        cluster.size() < padded.size()
            ? height_variation(cluster, config_.projection.knn_k)
            : height_variation(padded, cluster, config_.projection.knn_k);
    sigma.resize(padded.size(), 0.0);

    return project_cluster(padded, anchor, config_.projection, sigma);
}

std::vector<std::size_t> cnn_feature_extractor::sample_shape() const {
    const auto d = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(config_.projection.target_points))));
    return {d, d, projection_channels(config_.projection.method)};
}

}  // namespace hawc
