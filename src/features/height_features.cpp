#include "features/height_features.hpp"

#include <cmath>

#include "common/thread_pool.hpp"
#include "pointcloud/kd_tree.hpp"

namespace hawc {

namespace {

std::vector<double> sigma_against_tree(const point_cloud& query, const point_cloud& reference,
                                       const kd_tree& tree, std::size_t k) {
    std::vector<double> sigmas(query.size(), 0.0);
    if (reference.size() < 2) return sigmas;
    // Per-point queries are independent; fan out over the pool with one
    // allocation-free scratch buffer per chunk. Each sigma depends only
    // on its own neighbourhood, so results are identical for any thread
    // count.
    global_pool().parallel_for(0, query.size(), 64, [&](std::size_t lo, std::size_t hi,
                                                        std::size_t /*chunk*/) {
        std::vector<neighbor> neighbors;  // reused across the chunk's queries
        for (std::size_t i = lo; i < hi; ++i) {
            tree.nearest_into(query[i], k + 1, neighbors);  // may include self
            double mean = 0.0;
            for (const auto& nb : neighbors) mean += reference[nb.index].z;
            mean /= static_cast<double>(neighbors.size());
            double var = 0.0;
            for (const auto& nb : neighbors) {
                const double d = reference[nb.index].z - mean;
                var += d * d;
            }
            sigmas[i] = std::sqrt(var / static_cast<double>(neighbors.size()));
        }
    });
    return sigmas;
}

}  // namespace

std::vector<double> height_variation(const point_cloud& cloud, std::size_t k) {
    if (cloud.size() < 2) return std::vector<double>(cloud.size(), 0.0);
    const kd_tree tree{cloud};
    return sigma_against_tree(cloud, cloud, tree, k);
}

std::vector<double> height_variation(const point_cloud& query, const point_cloud& reference,
                                     std::size_t k) {
    if (reference.size() < 2) return std::vector<double>(query.size(), 0.0);
    const kd_tree tree{reference};
    return sigma_against_tree(query, reference, tree, k);
}

}  // namespace hawc
