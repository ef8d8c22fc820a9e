#include "pointcloud/kd_tree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace hawc {

namespace {

double axis_value(const vec3& p, std::uint8_t axis) {
    switch (axis) {
        case 0: return p.x;
        case 1: return p.y;
        default: return p.z;
    }
}

// Max-heap of the best k candidates on a fixed-size inline array — the
// k <= 16 fast path (height_variation uses k = 9). No
// allocation, and small enough to live in registers/L1 during traversal.
class inline_k_heap {
public:
    static constexpr std::size_t capacity = 16;

    explicit inline_k_heap(std::size_t k) : k_{k} {}

    std::size_t size() const { return size_; }
    bool full() const { return size_ == k_; }
    double worst() const { return slots_[0].distance; }

    void consider(std::size_t index, double d_sq) {
        if (size_ < k_) {
            slots_[size_] = {index, d_sq};
            sift_up(size_++);
        } else if (d_sq < slots_[0].distance) {
            slots_[0] = {index, d_sq};
            sift_down();
        }
    }

    // Ascending (distance, index) extraction into `out`.
    void extract_sorted(std::vector<neighbor>& out) {
        out.assign(slots_.begin(), slots_.begin() + size_);
        std::sort(out.begin(), out.end(), [](const neighbor& a, const neighbor& b) {
            if (a.distance != b.distance) return a.distance < b.distance;
            return a.index < b.index;
        });
    }

private:
    void sift_up(std::size_t i) {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (slots_[parent].distance >= slots_[i].distance) break;
            std::swap(slots_[parent], slots_[i]);
            i = parent;
        }
    }

    void sift_down() {
        std::size_t i = 0;
        for (;;) {
            const std::size_t l = 2 * i + 1;
            const std::size_t r = l + 1;
            std::size_t largest = i;
            if (l < size_ && slots_[l].distance > slots_[largest].distance) largest = l;
            if (r < size_ && slots_[r].distance > slots_[largest].distance) largest = r;
            if (largest == i) break;
            std::swap(slots_[i], slots_[largest]);
            i = largest;
        }
    }

    std::array<neighbor, capacity> slots_{};
    std::size_t k_ = 0;
    std::size_t size_ = 0;
};

// Max-heap over the caller's vector for k > 16. The vector's capacity is
// the only storage, so repeated queries through the same buffer settle
// into an allocation-free steady state too.
class vector_k_heap {
public:
    vector_k_heap(std::size_t k, std::vector<neighbor>& storage) : k_{k}, heap_{storage} {
        heap_.clear();
    }

    std::size_t size() const { return heap_.size(); }
    bool full() const { return heap_.size() == k_; }
    double worst() const { return heap_.front().distance; }

    void consider(std::size_t index, double d_sq) {
        if (heap_.size() < k_) {
            heap_.push_back({index, d_sq});
            std::push_heap(heap_.begin(), heap_.end(), by_distance);
        } else if (d_sq < heap_.front().distance) {
            std::pop_heap(heap_.begin(), heap_.end(), by_distance);
            heap_.back() = {index, d_sq};
            std::push_heap(heap_.begin(), heap_.end(), by_distance);
        }
    }

    void extract_sorted(std::vector<neighbor>& out) {
        // `out` is the heap's own storage; sort it in place.
        std::sort(out.begin(), out.end(), [](const neighbor& a, const neighbor& b) {
            if (a.distance != b.distance) return a.distance < b.distance;
            return a.index < b.index;
        });
    }

private:
    static bool by_distance(const neighbor& a, const neighbor& b) {
        return a.distance < b.distance;
    }

    std::size_t k_;
    std::vector<neighbor>& heap_;
};

}  // namespace

kd_tree::kd_tree(const point_cloud& cloud) {
    const auto n = static_cast<std::int32_t>(cloud.size());
    points_.reserve(cloud.size());
    for (const auto& p : cloud) points_.push_back(p);
    order_.resize(cloud.size());
    std::iota(order_.begin(), order_.end(), 0);
    if (n > 0) {
        nodes_.reserve(static_cast<std::size_t>(2 * n / leaf_size + 4));
        root_ = build(0, n, 0);
    }
}

std::int32_t kd_tree::build(std::int32_t begin, std::int32_t end, int depth) {
    node nd;
    if (end - begin <= leaf_size) {
        nd.leaf = true;
        nd.begin = begin;
        nd.end = end;
        nodes_.push_back(nd);
        return static_cast<std::int32_t>(nodes_.size() - 1);
    }

    // Pick the widest-spread axis for better balance on anisotropic data
    // (LiDAR walkway scenes are much longer in x than tall in z).
    vec3 lo = points_[static_cast<std::size_t>(order_[begin])];
    vec3 hi = lo;
    for (std::int32_t i = begin + 1; i < end; ++i) {
        const auto& p = points_[static_cast<std::size_t>(order_[i])];
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        lo.z = std::min(lo.z, p.z);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
        hi.z = std::max(hi.z, p.z);
    }
    const vec3 spread = hi - lo;
    std::uint8_t axis = 0;
    if (spread.y > spread.x) axis = 1;
    if (spread.z > axis_value(spread, axis)) axis = 2;

    const std::int32_t mid = begin + (end - begin) / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                     [&](std::int32_t a, std::int32_t b) {
                         return axis_value(points_[static_cast<std::size_t>(a)], axis) <
                                axis_value(points_[static_cast<std::size_t>(b)], axis);
                     });

    nd.axis = axis;
    nd.split = axis_value(points_[static_cast<std::size_t>(order_[mid])], axis);
    nodes_.push_back(nd);
    const auto index = static_cast<std::int32_t>(nodes_.size() - 1);
    const auto left = build(begin, mid, depth + 1);
    const auto right = build(mid, end, depth + 1);
    nodes_[static_cast<std::size_t>(index)].left = left;
    nodes_[static_cast<std::size_t>(index)].right = right;
    return index;
}

template <typename Heap>
void kd_tree::nearest_with_heap(const vec3& query, std::size_t /*k*/, Heap& heap) const {
    // Iterative depth-first traversal with pruning against the current
    // k-th best distance. The exact-median build halves each range, so
    // the tree height (and with it the pending-node stack) is bounded by
    // log2(2^31 / leaf_size) + 1 < 32 — a fixed array is enough and the
    // traversal never touches the allocator.
    std::array<std::int32_t, 64> stack;
    std::size_t depth = 0;
    stack[depth++] = root_;
    while (depth > 0) {
        const auto ni = stack[--depth];
        if (ni < 0) continue;
        const node& nd = nodes_[static_cast<std::size_t>(ni)];
        if (nd.leaf) {
            for (std::int32_t i = nd.begin; i < nd.end; ++i) {
                const auto cloud_index = order_[static_cast<std::size_t>(i)];
                const double d_sq =
                    points_[static_cast<std::size_t>(cloud_index)].distance_sq_to(query);
                heap.consider(static_cast<std::size_t>(cloud_index), d_sq);
            }
            continue;
        }
        const double delta = axis_value(query, nd.axis) - nd.split;
        const auto near_child = delta <= 0.0 ? nd.left : nd.right;
        const auto far_child = delta <= 0.0 ? nd.right : nd.left;
        // Visit far side only if the splitting plane is closer than the
        // current worst retained distance (or we have fewer than k yet).
        if (!heap.full() || delta * delta <= heap.worst()) stack[depth++] = far_child;
        stack[depth++] = near_child;
    }
}

void kd_tree::nearest_into(const vec3& query, std::size_t k, std::vector<neighbor>& out) const {
    out.clear();
    if (k == 0 || points_.empty()) return;
    k = std::min(k, points_.size());

    if (k <= inline_k_heap::capacity) {
        inline_k_heap heap{k};
        nearest_with_heap(query, k, heap);
        heap.extract_sorted(out);
    } else {
        vector_k_heap heap{k, out};
        nearest_with_heap(query, k, heap);
        heap.extract_sorted(out);
    }
    for (auto& nb : out) nb.distance = std::sqrt(nb.distance);
}

std::vector<neighbor> kd_tree::nearest(const vec3& query, std::size_t k) const {
    std::vector<neighbor> result;
    nearest_into(query, k, result);
    return result;
}

}  // namespace hawc
