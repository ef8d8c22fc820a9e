#include "clustering/dbscan.hpp"

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace hawc {

// Two-phase DBSCAN. Phase 1 computes every point's eps-neighbourhood and
// core flag — grid radius queries are independent, so they fan out across
// the thread pool, each chunk filling a list of its own, and land in one
// CSR structure (chunks are contiguous and copied back in chunk order, so
// the CSR is byte-identical for any thread count). Phase 2 is the
// sequential label expansion; it only walks the precomputed lists. Both
// phases work on the grid's cell-order positions, which keeps each
// chunk's queries in neighbouring cells; seeds are still taken in cloud
// order, and a cluster is the closure of its seed over the neighbour
// *sets*, so the labels are those of the original single-pass
// implementation. Points claim their label when they enter the frontier,
// so each point is enqueued at most once and the frontier is bounded by
// the cloud size even on dense clusters.
cluster_result dbscan(const neighbor_grid& grid, double eps, std::size_t min_points,
                      const telemetry_handle& telem) {
    HAWC_REQUIRE(eps > 0.0, "dbscan eps must be positive");
    telemetry::scoped_span span{telem, "dbscan"};
    HAWC_REQUIRE(min_points >= 1, "dbscan min_points must be at least 1");

    constexpr int unvisited = -2;
    const std::size_t n = grid.size();
    cluster_result result;
    if (n == 0) return result;

    // ---- Phase 1: parallel neighbour lists + core flags (CSR) ----
    thread_pool& pool = global_pool();
    std::vector<std::uint32_t> counts(n, 0);
    constexpr std::size_t grain = 256;
    std::vector<std::vector<std::uint32_t>> chunk_lists(chunk_count(n, grain));

    pool.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
        // Appends go to a list local to this chunk: the headers of
        // chunk_lists sit side by side, and growing them in place from
        // several lanes false-shares their cache lines.
        std::vector<std::uint32_t> local;
        for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t before = local.size();
            grid.radius_into(grid.point(i), eps, local);
            counts[i] = static_cast<std::uint32_t>(local.size() - before);
        }
        chunk_lists[chunk] = std::move(local);
    });

    std::vector<std::size_t> offsets(n + 1, 0);
    std::inclusive_scan(counts.begin(), counts.end(), offsets.begin() + 1,
                        std::plus<>{}, std::size_t{0});
    std::vector<std::uint32_t> neighbors;
    neighbors.reserve(offsets[n]);
    for (const auto& local : chunk_lists) {
        neighbors.insert(neighbors.end(), local.begin(), local.end());
    }

    // ---- Phase 2: sequential label expansion over the CSR lists ----
    std::vector<int> labels(n, unvisited);  // by cell-order position
    int next_cluster = 0;
    std::vector<std::uint32_t> frontier;
    frontier.reserve(n);

    const auto is_core = [&](std::size_t p) { return counts[p] >= min_points; };
    const auto claim_neighbors = [&](std::size_t p, int cluster) {
        for (std::size_t j = offsets[p]; j < offsets[p + 1]; ++j) {
            const std::uint32_t nb = neighbors[j];
            const int label = labels[nb];
            if (label == unvisited || label == noise_label) {
                labels[nb] = cluster;  // border until proven core
                frontier.push_back(nb);
            }
        }
    };

    std::vector<std::uint32_t> position(n);  // cloud index -> cell-order position
    for (std::size_t pos = 0; pos < n; ++pos) {
        position[grid.cloud_index(pos)] = static_cast<std::uint32_t>(pos);
    }
    for (const std::uint32_t seed : position) {  // seeds in cloud order
        if (labels[seed] != unvisited) continue;
        if (!is_core(seed)) {
            labels[seed] = noise_label;  // may be relabelled as border later
            continue;
        }

        const int cluster = next_cluster++;
        labels[seed] = cluster;
        frontier.clear();
        claim_neighbors(seed, cluster);
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            const std::uint32_t p = frontier[head];
            if (is_core(p)) claim_neighbors(p, cluster);
        }
    }

    result.labels.resize(n);
    for (std::size_t pos = 0; pos < n; ++pos) result.labels[grid.cloud_index(pos)] = labels[pos];
    result.cluster_count = static_cast<std::size_t>(next_cluster);
    if (telem.metrics != nullptr) {
        telem.metrics->make_counter("hawc_dbscan_points_total", "Points clustered by DBSCAN")
            .add(n);
        telem.metrics->make_counter("hawc_dbscan_clusters_total", "Clusters DBSCAN produced")
            .add(result.cluster_count);
    }
    return result;
}

cluster_result dbscan(const point_cloud& cloud, const dbscan_config& config,
                      const telemetry_handle& telem) {
    if (cloud.empty()) return {};
    return dbscan(neighbor_grid{config.metric.scale(cloud)}, config.eps, config.min_points,
                  telem);
}

cluster_result dbscan_scaled(const point_cloud& scaled_cloud, const kd_tree& /*tree*/,
                             double eps, std::size_t min_points, const telemetry_handle& telem) {
    return dbscan(neighbor_grid{scaled_cloud}, eps, min_points, telem);
}

}  // namespace hawc
