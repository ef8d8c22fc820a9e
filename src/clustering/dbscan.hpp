#pragma once

// DBSCAN density-based clustering (Ester et al.), over a neighbor_grid.
// The paper's pipeline runs DBSCAN with a per-capture adaptive eps (see
// adaptive_eps.hpp); the fixed-eps variant here is also the Table IV
// baseline.

#include "clustering/cluster_result.hpp"
#include "pointcloud/neighbor_grid.hpp"
#include "telemetry/trace.hpp"

namespace hawc {

class kd_tree;

struct dbscan_config {
    double eps = 0.1;            // neighbourhood radius (in metric space)
    std::size_t min_points = 5;  // core-point density threshold (m in the paper)
    cluster_metric metric{};
};

/// Run DBSCAN over `cloud`. Returns per-point labels; border points join
/// the first core point that reaches them, noise points get noise_label.
/// With a telemetry handle the run emits a "dbscan" span and point/cluster
/// counters; the default handle is inert and costs a couple of null checks.
cluster_result dbscan(const point_cloud& cloud, const dbscan_config& config,
                      const telemetry_handle& telem = {});

/// DBSCAN over the grid of a cloud already in metric space (the adaptive
/// path reuses the grid eps selection ran on). Labels are indexed like
/// the cloud the grid was built from.
cluster_result dbscan(const neighbor_grid& grid, double eps, std::size_t min_points,
                      const telemetry_handle& telem = {});

/// Forwarder for the replay benchmark's stage probe: builds a grid over
/// `scaled_cloud` and ignores `tree`. Goes when that probe does.
cluster_result dbscan_scaled(const point_cloud& scaled_cloud, const kd_tree& tree, double eps,
                             std::size_t min_points, const telemetry_handle& telem = {});

}  // namespace hawc
