#pragma once

// Static KD-tree over a point cloud, answering k-nearest-neighbour
// queries for the HAP height-variation sigma pass (the clustering stage's
// neighbour queries run on pointcloud/neighbor_grid.hpp).
//
// nearest_into writes into a caller-owned buffer and performs no heap
// allocation per query (beyond growing the caller's buffer towards its
// steady-state capacity), so the per-point sigma loop can run millions of
// queries without touching the allocator. Queries are const and touch no
// mutable state, so any number of threads may query one tree
// concurrently.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pointcloud/point_cloud.hpp"

namespace hawc {

/// Result of a nearest-neighbour query: point index plus distance.
struct neighbor {
    std::size_t index = 0;
    double distance = 0.0;
};

/// Balanced KD-tree built once over an immutable cloud. The tree stores
/// indices into the cloud passed at construction; the caller must keep
/// that cloud alive and unmodified for the tree's lifetime.
class kd_tree {
public:
    explicit kd_tree(const point_cloud& cloud);

    std::size_t size() const { return points_.size(); }

    /// The k nearest neighbours of `query`, sorted by ascending distance.
    /// Includes the query point itself if it is a member of the cloud.
    /// Returns fewer than k results when the cloud is smaller than k.
    std::vector<neighbor> nearest(const vec3& query, std::size_t k) const;

    /// Allocation-free k-NN: `out` is cleared and filled with the same
    /// results nearest() returns. Reuse `out` across queries; after the
    /// first few queries its capacity plateaus and queries stop
    /// allocating. k <= 16 additionally runs on a fixed-size inline heap.
    void nearest_into(const vec3& query, std::size_t k, std::vector<neighbor>& out) const;

private:
    struct node {
        std::int32_t left = -1;
        std::int32_t right = -1;
        std::int32_t begin = 0;   // leaf: range into order_
        std::int32_t end = 0;
        std::uint8_t axis = 0;
        double split = 0.0;
        bool leaf = false;
    };

    std::int32_t build(std::int32_t begin, std::int32_t end, int depth);

    template <typename Heap>
    void nearest_with_heap(const vec3& query, std::size_t k, Heap& heap) const;

    static constexpr std::int32_t leaf_size = 16;

    std::vector<vec3> points_;        // copy for cache-friendly traversal
    std::vector<std::int32_t> order_; // permutation: tree position -> cloud index
    std::vector<node> nodes_;
    std::int32_t root_ = -1;
};

}  // namespace hawc
