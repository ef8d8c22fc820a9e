#pragma once

// The paper's adaptive clustering (Section IV): pick the DBSCAN eps for
// *each capture* by locating the elbow of its sorted k-NN-distance curve,
//   k_elbow = argmax_i (d[i+1] - d[i]) / d[i],    eps = d[k_elbow],
// then run DBSCAN with that eps.

#include <span>

#include "clustering/dbscan.hpp"

namespace hawc {

struct adaptive_eps_config {
    std::size_t k = 4;          // which nearest neighbour's distance to use
    double min_eps = 0.05;      // clamp: degenerate elbows on tiny clouds
    double max_eps = 2.0;
    std::size_t min_points = 5; // DBSCAN core threshold (m in the paper)
    cluster_metric metric{};
};

/// Sorted (ascending) distance from every point to its k-th nearest
/// neighbour, computed in metric space. This is the curve of Figure 4a.
std::vector<double> knn_distance_curve(const point_cloud& cloud, std::size_t k,
                                       const cluster_metric& metric = {});

/// Same curve over the grid of a cloud already in metric space (lets eps
/// selection and DBSCAN share one neighbour index per frame).
std::vector<double> knn_distance_curve(const neighbor_grid& grid, std::size_t k);

/// Eps from an already-computed ascending k-NN curve (band restriction +
/// elbow + clamp); the pieces of adaptive_epsilon for callers that cache
/// the curve.
double epsilon_from_curve(std::span<const double> curve, const adaptive_eps_config& config);

/// Index of the elbow of an ascending distance curve, using the paper's
/// maximum-relative-increase criterion. Zero-valued entries are skipped
/// (relative increase is undefined there).
std::size_t knee_index(std::span<const double> ascending);

/// The per-capture optimal eps: elbow of the k-NN curve, clamped to
/// [min_eps, max_eps]. Returns min_eps for clouds too small to estimate.
/// With a telemetry handle the selection emits an "eps_selection" span and
/// publishes the chosen eps as the hawc_adaptive_eps_last gauge.
double adaptive_epsilon(const point_cloud& cloud, const adaptive_eps_config& config = {},
                        const telemetry_handle& telem = {});

/// adaptive_epsilon over the grid of a cloud already in metric space.
double adaptive_epsilon(const neighbor_grid& grid, const adaptive_eps_config& config = {},
                        const telemetry_handle& telem = {});

/// Forwarder for the replay benchmark's stage probe: builds a grid over
/// `scaled_cloud` and ignores `tree`. Goes when that probe does.
double adaptive_epsilon_scaled(const point_cloud& scaled_cloud, const kd_tree& tree,
                               const adaptive_eps_config& config = {},
                               const telemetry_handle& telem = {});

/// The full adaptive clustering step: eps selection + DBSCAN.
struct adaptive_clustering_result {
    cluster_result clusters;
    double chosen_eps = 0.0;
};

adaptive_clustering_result adaptive_dbscan(const point_cloud& cloud,
                                           const adaptive_eps_config& config = {});

}  // namespace hawc
