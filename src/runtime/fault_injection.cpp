#include "runtime/fault_injection.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace hawc {

const char* to_string(fault_kind kind) {
    switch (kind) {
        case fault_kind::beam_dropout: return "beam_dropout";
        case fault_kind::range_jitter: return "range_jitter";
        case fault_kind::non_finite: return "non_finite";
        case fault_kind::truncated_frame: return "truncated_frame";
        case fault_kind::duplicate_points: return "duplicate_points";
    }
    return "unknown";
}

namespace {

// Fault severities.
constexpr double dropout_fraction_min = 0.5;  // fraction of points lost
constexpr double dropout_fraction_max = 0.99;
constexpr double range_jitter_sigma_m = 2.0;  // radial noise magnitude
constexpr double non_finite_fraction = 0.03;  // points poisoned with NaN/Inf
constexpr double truncated_keep_max = 0.1;    // keep at most this fraction
constexpr double duplicate_fraction = 0.8;    // duplicates appended, rel. to size

point_cloud apply_beam_dropout(const point_cloud& cloud, rng& random) {
    // Losing channels thins the whole capture; severity varies frame to
    // frame, occasionally wiping out nearly everything.
    const double fraction = random.uniform(dropout_fraction_min, dropout_fraction_max);
    return cloud.filtered([&](const vec3&) { return !random.chance(fraction); });
}

point_cloud apply_range_jitter(const point_cloud& cloud, rng& random) {
    // Radial noise along the beam: the sensor sits at the origin, so a
    // range error scales the return along its direction vector.
    point_cloud out;
    out.reserve(cloud.size());
    for (const auto& p : cloud) {
        const double range = p.norm();
        if (range < 1e-9) {
            out.push_back(p);
            continue;
        }
        const double scale = 1.0 + random.normal(0.0, range_jitter_sigma_m) / range;
        out.push_back(p * scale);
    }
    return out;
}

point_cloud apply_non_finite(const point_cloud& cloud, rng& random) {
    point_cloud out = cloud;
    constexpr double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()};
    for (auto& p : out) {
        if (!random.chance(non_finite_fraction)) continue;
        const double poison = poisons[random.uniform_index(3)];
        switch (random.uniform_index(3)) {
            case 0: p.x = poison; break;
            case 1: p.y = poison; break;
            default: p.z = poison; break;
        }
    }
    return out;
}

point_cloud apply_truncated_frame(const point_cloud& cloud, rng& random) {
    // Partial frame: the tail of the rotation never arrives.
    const auto keep = static_cast<std::size_t>(static_cast<double>(cloud.size()) *
                                               random.uniform(0.0, truncated_keep_max));
    point_cloud out;
    out.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) out.push_back(cloud[i]);
    return out;
}

point_cloud apply_duplicate_points(const point_cloud& cloud, rng& random) {
    if (cloud.empty()) return cloud;
    // Stuck beams re-report a handful of returns over and over.
    point_cloud out = cloud;
    const auto extras = static_cast<std::size_t>(static_cast<double>(cloud.size()) *
                                                 duplicate_fraction);
    const std::size_t stuck_sources = 1 + random.uniform_index(4);
    std::vector<vec3> sources;
    for (std::size_t i = 0; i < stuck_sources; ++i) {
        sources.push_back(cloud[random.uniform_index(cloud.size())]);
    }
    for (std::size_t i = 0; i < extras; ++i) {
        out.push_back(sources[i % sources.size()]);
    }
    return out;
}

}  // namespace

point_cloud fault_injector::apply(fault_kind kind, const point_cloud& clean, rng& random) {
    ++injected_[static_cast<std::size_t>(kind)];
    switch (kind) {
        case fault_kind::beam_dropout: return apply_beam_dropout(clean, random);
        case fault_kind::range_jitter: return apply_range_jitter(clean, random);
        case fault_kind::non_finite: return apply_non_finite(clean, random);
        case fault_kind::truncated_frame: return apply_truncated_frame(clean, random);
        case fault_kind::duplicate_points: return apply_duplicate_points(clean, random);
    }
    return clean;
}

point_cloud fault_injector::corrupt(const point_cloud& clean, rng& random) {
    point_cloud out = clean;
    const std::pair<fault_kind, double> schedule[] = {
        {fault_kind::beam_dropout, config_.beam_dropout_prob},
        {fault_kind::range_jitter, config_.range_jitter_prob},
        {fault_kind::non_finite, config_.non_finite_prob},
        {fault_kind::truncated_frame, config_.truncated_frame_prob},
        {fault_kind::duplicate_points, config_.duplicate_points_prob},
    };
    for (const auto& [kind, prob] : schedule) {
        if (prob > 0.0 && random.chance(prob)) out = apply(kind, out, random);
    }
    return out;
}

std::uint64_t fault_injector::total_injected() const {
    return std::accumulate(injected_.begin(), injected_.end(), std::uint64_t{0});
}

bool flaky_classifier::is_human(const point_cloud& cluster, rng& random) const {
    if (random.chance(failure_probability_)) {
        faults_.fetch_add(1, std::memory_order_relaxed);
        throw data_integrity_error{"injected classifier fault"};
    }
    return inner_->is_human(cluster, random);
}

}  // namespace hawc
