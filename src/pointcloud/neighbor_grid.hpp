#pragma once

// Uniform 2-D (x, y) grid over a point cloud: the neighbour index of the
// adaptive clustering stage, built once per frame. It answers the two
// queries that stage needs, both exactly:
//   - the distance to the rank-th nearest point (the k-NN elbow curve),
//     found by a ring search around the query's cell that stops once no
//     unvisited cell can hold a closer point;
//   - every point within a radius (DBSCAN's region lists).
// Points are stored in cell order, row-major, as separate x/y/z arrays,
// so the cells of one grid row that a query touches are one contiguous
// run of memory. Both queries compare the squared distance exactly as
// vec3::distance_sq_to computes it, so they agree bit for bit with a
// brute-force scan. z takes part in every distance; only the pruning is
// 2-D.
//
// The cell size is derived from the cloud's (x, y) footprint and its
// point count, and the cell count is at most 3 * cells_per_point * n + 1
// whatever the cloud's extent; queries at any radius derive their cell
// span from that radius. Queries are const and allocation-free once the
// caller's buffer has reached its plateau capacity, so any number of
// threads may query one grid concurrently.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pointcloud/point_cloud.hpp"

namespace hawc {

class neighbor_grid {
public:
    /// Cells per point the (x, y) footprint is divided into. Smaller
    /// cells prune the k-NN ring search harder; 8 was fastest on the
    /// deployment sensor's crowd frames among 1, 4, 8 and 16.
    static constexpr std::size_t cells_per_point = 8;

    /// Bins a copy of `cloud` (the grid does not reference it). Throws
    /// invalid_argument_error when the footprint's area overflows a
    /// double.
    explicit neighbor_grid(const point_cloud& cloud);

    std::size_t size() const { return index_.size(); }
    /// At most 3 * cells_per_point * max(size(), 1) + 1.
    std::size_t cell_count() const { return cell_start_.size() - 1; }

    /// Index into the construction cloud of the point at cell-order
    /// position `pos`.
    std::uint32_t cloud_index(std::size_t pos) const { return index_[pos]; }

    /// The point at cell-order position `pos`.
    vec3 point(std::size_t pos) const { return {xs_[pos], ys_[pos], zs_[pos]}; }

    /// Distance from `query` to its rank-th nearest grid point (rank 1 is
    /// the nearest; a query that is itself a grid point is its own
    /// rank-1 neighbour). Requires 1 <= rank <= size(). `best` is scratch
    /// for the rank best squared distances; reuse it across queries.
    double nearest_distance(const vec3& query, std::size_t rank,
                            std::vector<double>& best) const;

    /// Appends the cell-order position of every grid point within
    /// `radius` (inclusive) of `query` to `found`, in cell order. A
    /// negative radius appends nothing.
    void radius_into(const vec3& query, double radius, std::vector<std::uint32_t>& found) const;

private:
    // Cell column (row) of an x (y) coordinate, clamped into the grid.
    std::size_t bin(double v, double origin, std::size_t count) const;
    std::size_t column(double x) const { return bin(x, x0_, nx_); }
    std::size_t row(double y) const { return bin(y, y0_, ny_); }

    template <typename Visit>
    void scan_row(std::size_t y, std::size_t col_lo, std::size_t col_hi, const vec3& query,
                  Visit&& visit) const;

    double x0_ = 0.0;
    double y0_ = 0.0;
    double cell_ = 1.0;
    double inv_cell_ = 1.0;
    double slack_ = 0.0;  // absolute bound on binning/rounding error
    std::size_t nx_ = 1;
    std::size_t ny_ = 1;
    std::vector<std::uint32_t> cell_start_;  // row-major, size cell_count() + 1
    std::vector<double> xs_;
    std::vector<double> ys_;
    std::vector<double> zs_;
    std::vector<std::uint32_t> index_;  // cell-order position -> cloud index
};

}  // namespace hawc
