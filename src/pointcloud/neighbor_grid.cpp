#include "pointcloud/neighbor_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace hawc {

namespace {

// Relative size of the margin that absorbs binning and rounding error in
// the queries' cell spans and stop bounds. It only ever widens a span or
// delays a stop, so it costs an occasional extra cell, never a result.
constexpr double slack_ratio = 1e-9;

}  // namespace

neighbor_grid::neighbor_grid(const point_cloud& cloud) {
    const std::size_t n = cloud.size();
    HAWC_REQUIRE(n < std::numeric_limits<std::uint32_t>::max(),
                 "neighbor_grid indexes at most 2^32 - 2 points");

    // Footprint of the finite points; a non-finite one lands in cell 0
    // and, its distances being NaN, matches no query.
    double x1 = -std::numeric_limits<double>::infinity();
    double y1 = x1;
    x0_ = std::numeric_limits<double>::infinity();
    y0_ = x0_;
    for (const vec3& p : cloud) {
        if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
        x0_ = std::min(x0_, p.x);
        x1 = std::max(x1, p.x);
        y0_ = std::min(y0_, p.y);
        y1 = std::max(y1, p.y);
    }
    if (!(x1 >= x0_)) x0_ = x1 = y0_ = y1 = 0.0;

    // Square cells, about cells_per_point per point over the footprint,
    // but never so small that one side alone needs more than that many:
    // then nx * ny <= budget + nx + ny - 1 <= 3 * budget + 1.
    const double w = x1 - x0_;
    const double h = y1 - y0_;
    HAWC_REQUIRE(std::isfinite(w * h), "neighbor_grid footprint overflows a double");
    const double budget = static_cast<double>(cells_per_point * std::max<std::size_t>(n, 1));
    cell_ = std::max({std::sqrt(w * h / budget), w / budget, h / budget});
    if (!(cell_ > 0.0)) cell_ = 1.0;  // every point on one (x, y): one cell
    inv_cell_ = 1.0 / cell_;
    nx_ = static_cast<std::size_t>(std::min(w * inv_cell_, budget)) + 1;
    ny_ = static_cast<std::size_t>(std::min(h * inv_cell_, budget)) + 1;
    slack_ = slack_ratio *
             (std::max({std::abs(x0_), std::abs(x1), std::abs(y0_), std::abs(y1)}) + cell_);

    // Counting sort into cell order; points of one cell keep cloud order.
    const std::size_t cells = nx_ * ny_;
    const auto cell_of = [&](const vec3& p) { return row(p.y) * nx_ + column(p.x); };
    cell_start_.assign(cells + 1, 0);
    for (const vec3& p : cloud) ++cell_start_[cell_of(p) + 1];
    std::partial_sum(cell_start_.begin(), cell_start_.end(), cell_start_.begin());
    xs_.resize(n);
    ys_.resize(n);
    zs_.resize(n);
    index_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const vec3& p = cloud[i];
        const std::uint32_t pos = cell_start_[cell_of(p)]++;
        xs_[pos] = p.x;
        ys_[pos] = p.y;
        zs_[pos] = p.z;
        index_[pos] = static_cast<std::uint32_t>(i);
    }
    // Each start was advanced to the next cell's start; shift them back.
    std::copy_backward(cell_start_.begin(), cell_start_.end() - 2, cell_start_.end() - 1);
    cell_start_[0] = 0;
}

std::size_t neighbor_grid::bin(double v, double origin, std::size_t count) const {
    const double f = (v - origin) * inv_cell_;
    if (!(f > 0.0)) return 0;
    return f >= static_cast<double>(count - 1) ? count - 1 : static_cast<std::size_t>(f);
}

template <typename Visit>
void neighbor_grid::scan_row(std::size_t y, std::size_t col_lo, std::size_t col_hi,
                             const vec3& query, Visit&& visit) const {
    const std::size_t first = y * nx_;
    const std::uint32_t end = cell_start_[first + col_hi + 1];
    for (std::uint32_t j = cell_start_[first + col_lo]; j < end; ++j) {
        // The operand order of vec3::distance_sq_to, so results match it.
        const double dx = xs_[j] - query.x;
        const double dy = ys_[j] - query.y;
        const double dz = zs_[j] - query.z;
        visit(j, dx * dx + dy * dy + dz * dz);
    }
}

double neighbor_grid::nearest_distance(const vec3& query, std::size_t rank,
                                       std::vector<double>& best) const {
    HAWC_REQUIRE(rank >= 1 && rank <= size(), "nearest rank must be in [1, size()]");
    // best[0, kept) holds the smallest squared distances seen, ascending.
    best.resize(rank);
    double* const slots = best.data();
    std::size_t kept = 0;
    double worst = std::numeric_limits<double>::infinity();
    const auto consider = [&](std::uint32_t, double d_sq) {
        if (!(d_sq < worst)) return;
        std::size_t i = kept < rank ? kept++ : rank - 1;
        for (; i > 0 && slots[i - 1] > d_sq; --i) slots[i] = slots[i - 1];
        slots[i] = d_sq;
        if (kept == rank) worst = slots[rank - 1];
    };

    // Visit square rings of cells around the query's cell. After ring r,
    // every unvisited point lies outside the block of rings 0..r, so it
    // is at least `gap` (the query's distance to that block's nearest
    // open side) away; once the rank-th best is within the gap, no
    // unvisited point can displace it.
    using index = std::ptrdiff_t;
    const auto cx = static_cast<index>(column(query.x));
    const auto cy = static_cast<index>(row(query.y));
    const auto last_x = static_cast<index>(nx_) - 1;
    const auto last_y = static_cast<index>(ny_) - 1;
    const double slack = slack_ + slack_ratio * (std::abs(query.x) + std::abs(query.y));
    const auto at = [](index i) { return static_cast<std::size_t>(i); };
    for (index r = 0;; ++r) {
        const index x_lo = cx - r;
        const index x_hi = cx + r;
        const index y_lo = cy - r;
        const index y_hi = cy + r;
        const std::size_t col_lo = at(std::max<index>(x_lo, 0));
        const std::size_t col_hi = at(std::min(x_hi, last_x));
        if (y_lo >= 0) scan_row(at(y_lo), col_lo, col_hi, query, consider);
        if (r > 0 && y_hi <= last_y) scan_row(at(y_hi), col_lo, col_hi, query, consider);
        for (index y = std::max<index>(y_lo + 1, 0); y <= std::min(y_hi - 1, last_y); ++y) {
            if (x_lo >= 0) scan_row(at(y), at(x_lo), at(x_lo), query, consider);
            if (x_hi <= last_x) scan_row(at(y), at(x_hi), at(x_hi), query, consider);
        }
        if (x_lo <= 0 && y_lo <= 0 && x_hi >= last_x && y_hi >= last_y) break;
        if (kept < rank) continue;
        double gap = std::numeric_limits<double>::infinity();
        if (x_lo > 0) gap = std::min(gap, query.x - (x0_ + static_cast<double>(x_lo) * cell_));
        if (x_hi < last_x) {
            gap = std::min(gap, x0_ + static_cast<double>(x_hi + 1) * cell_ - query.x);
        }
        if (y_lo > 0) gap = std::min(gap, query.y - (y0_ + static_cast<double>(y_lo) * cell_));
        if (y_hi < last_y) {
            gap = std::min(gap, y0_ + static_cast<double>(y_hi + 1) * cell_ - query.y);
        }
        gap = std::max(gap - slack, 0.0);
        if (worst <= gap * gap) break;
    }
    return kept == rank ? std::sqrt(slots[rank - 1]) : std::numeric_limits<double>::quiet_NaN();
}

void neighbor_grid::radius_into(const vec3& query, double radius,
                                std::vector<std::uint32_t>& found) const {
    if (!(radius >= 0.0) || index_.empty()) return;
    const double radius_sq = radius * radius;
    const double reach =
        radius + slack_ + slack_ratio * (std::abs(query.x) + std::abs(query.y) + radius);
    const std::size_t col_lo = column(query.x - reach);
    const std::size_t col_hi = column(query.x + reach);
    const std::size_t row_hi = row(query.y + reach);
    for (std::size_t r = row(query.y - reach); r <= row_hi; ++r) {
        // Branch-free append: write every candidate, keep the hits.
        const std::size_t first = r * nx_;
        const std::uint32_t begin = cell_start_[first + col_lo];
        const std::uint32_t end = cell_start_[first + col_hi + 1];
        const std::size_t base = found.size();
        found.resize(base + (end - begin));
        std::uint32_t* const out = found.data() + base;
        std::size_t hits = 0;
        scan_row(r, col_lo, col_hi, query, [&](std::uint32_t j, double d_sq) {
            out[hits] = j;
            hits += d_sq <= radius_sq ? 1 : 0;
        });
        found.resize(base + hits);
    }
}

}  // namespace hawc
