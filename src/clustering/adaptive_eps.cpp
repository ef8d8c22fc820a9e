#include "clustering/adaptive_eps.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace hawc {

std::vector<double> knn_distance_curve(const point_cloud& cloud, std::size_t k,
                                       const cluster_metric& metric) {
    HAWC_REQUIRE(k >= 1, "k must be at least 1");
    if (cloud.size() <= k) return {};
    return knn_distance_curve(neighbor_grid{metric.scale(cloud)}, k);
}

std::size_t knee_index(std::span<const double> ascending) {
    HAWC_REQUIRE(ascending.size() >= 2, "knee needs at least two samples");
    std::size_t best = ascending.size() - 1;
    double best_ratio = -1.0;
    for (std::size_t i = 0; i + 1 < ascending.size(); ++i) {
        if (ascending[i] <= 0.0) continue;
        const double ratio = (ascending[i + 1] - ascending[i]) / ascending[i];
        if (ratio > best_ratio) {
            best_ratio = ratio;
            best = i;
        }
    }
    return best;
}

std::vector<double> knn_distance_curve(const neighbor_grid& grid, std::size_t k) {
    HAWC_REQUIRE(k >= 1, "k must be at least 1");
    std::vector<double> distances;
    if (grid.size() <= k) return distances;
    distances.resize(grid.size());
    // One independent k-NN query per point, in the grid's cell order:
    // fan out over the pool with a reused allocation-free scratch buffer
    // per chunk. The sort below erases the order, and the k-th distance
    // does not depend on the order its candidates were met in, so the
    // curve is identical for any thread count.
    global_pool().parallel_for(0, grid.size(), 64, [&](std::size_t lo, std::size_t hi,
                                                       std::size_t /*chunk*/) {
        std::vector<double> best;
        for (std::size_t i = lo; i < hi; ++i) {
            // k+1 because the query point itself is its own nearest.
            distances[i] = grid.nearest_distance(grid.point(i), k + 1, best);
        }
    });
    std::sort(distances.begin(), distances.end());
    return distances;
}

namespace {

// The elbow marks the transition from cluster points (small k-NN
// distances) to noise points (large ones). Relative jumps deep inside the
// dense bulk or between the last few extreme outliers are not that
// transition, so the search is restricted to this quantile band of the
// sorted curve.
constexpr double band_lo = 0.60;
constexpr double band_hi = 0.985;

}  // namespace

double epsilon_from_curve(std::span<const double> curve, const adaptive_eps_config& config) {
    if (curve.size() < 2) return config.min_eps;

    // Restrict to the transition band and skip the near-duplicate region
    // below min_eps, where relative jumps are measurement noise rather
    // than the elbow.
    auto lo = static_cast<std::size_t>(band_lo * static_cast<double>(curve.size()));
    auto hi = static_cast<std::size_t>(band_hi * static_cast<double>(curve.size()));
    while (lo < curve.size() && curve[lo] < config.min_eps) ++lo;
    // Duplicate-heavy clouds (stuck sensor returns) can push `lo` past the
    // end of the curve; clamping with inverted bounds would read past it.
    if (lo + 2 > curve.size()) return std::clamp(curve.back(), config.min_eps, config.max_eps);
    hi = std::clamp<std::size_t>(hi, lo + 2, curve.size());

    const std::span<const double> band{curve.data() + lo, hi - lo};
    const double eps = band[knee_index(band)];
    return std::clamp(eps, config.min_eps, config.max_eps);
}

namespace {

void publish_eps(const telemetry_handle& telem, double eps) {
    if (telem.metrics == nullptr) return;
    telem.metrics
        ->make_gauge("hawc_adaptive_eps_last", "Most recent adaptively selected DBSCAN eps")
        .set(eps);
    telem.metrics
        ->make_counter("hawc_adaptive_eps_selections_total", "Adaptive eps selections run")
        .add(1);
}

}  // namespace

double adaptive_epsilon(const point_cloud& cloud, const adaptive_eps_config& config,
                        const telemetry_handle& telem) {
    return adaptive_epsilon(neighbor_grid{config.metric.scale(cloud)}, config, telem);
}

double adaptive_epsilon(const neighbor_grid& grid, const adaptive_eps_config& config,
                        const telemetry_handle& telem) {
    telemetry::scoped_span span{telem, "eps_selection"};
    const auto curve = knn_distance_curve(grid, config.k);
    const double eps = epsilon_from_curve(curve, config);
    publish_eps(telem, eps);
    return eps;
}

double adaptive_epsilon_scaled(const point_cloud& scaled_cloud, const kd_tree& /*tree*/,
                               const adaptive_eps_config& config,
                               const telemetry_handle& telem) {
    return adaptive_epsilon(neighbor_grid{scaled_cloud}, config, telem);
}

adaptive_clustering_result adaptive_dbscan(const point_cloud& cloud,
                                           const adaptive_eps_config& config) {
    adaptive_clustering_result result;
    if (cloud.empty()) return result;
    // Scale the cloud and grid it once; eps selection and the DBSCAN
    // region queries share the grid.
    const neighbor_grid grid{config.metric.scale(cloud)};
    result.chosen_eps = adaptive_epsilon(grid, config);
    result.clusters = dbscan(grid, result.chosen_eps, config.min_points);
    return result;
}

}  // namespace hawc
