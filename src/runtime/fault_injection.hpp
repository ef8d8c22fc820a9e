#pragma once

// Sensor fault injection for chaos testing the streaming runtime. Each
// fault mimics a real failure mode of pole-mounted spinning LiDAR:
//   beam_dropout     - channels lost to occlusion, rain or connector wear
//   range_jitter     - radial noise bursts (multipath, retro-reflectors)
//   non_finite       - NaN/Inf returns from saturation or driver bugs
//   truncated_frame  - partial frame (UDP loss mid-rotation)
//   duplicate_points - stuck beams re-reporting the same return
// The injector is deterministic given its rng, and counts what it
// injected so soak tests can correlate faults with supervisor reactions.

#include <array>
#include <atomic>
#include <cstdint>

#include "classifiers/classifier.hpp"
#include "common/rng.hpp"
#include "pointcloud/point_cloud.hpp"

namespace hawc {

enum class fault_kind {
    beam_dropout,
    range_jitter,
    non_finite,
    truncated_frame,
    duplicate_points,
};

inline constexpr std::size_t fault_kind_count = 5;

const char* to_string(fault_kind kind);

// Per-frame probability that each fault fires (independently). Each
// fault's severity is fixed in fault_injection.cpp.
struct fault_injection_config {
    double beam_dropout_prob = 0.05;
    double range_jitter_prob = 0.05;
    double non_finite_prob = 0.05;
    double truncated_frame_prob = 0.05;
    double duplicate_points_prob = 0.05;
};

class fault_injector {
public:
    explicit fault_injector(const fault_injection_config& config = {}) : config_{config} {}

    /// Corrupt one clean capture: every configured fault fires
    /// independently with its probability.
    point_cloud corrupt(const point_cloud& clean, rng& random);

    /// Apply exactly one fault kind (for targeted chaos schedules).
    point_cloud apply(fault_kind kind, const point_cloud& clean, rng& random);

    std::uint64_t injected(fault_kind kind) const {
        return injected_[static_cast<std::size_t>(kind)];
    }
    std::uint64_t total_injected() const;

private:
    fault_injection_config config_;
    std::array<std::uint64_t, fault_kind_count> injected_{};
};

/// Chaos wrapper for classifier-level faults: forwards to `inner` but
/// throws data_integrity_error with the given probability, standing in
/// for sporadic dequantization/validation failures. Exercises the
/// supervisor's float-model fallback rung in soak tests. Each fault is
/// drawn from the per-call `random` stream, so a schedule is fixed by
/// the frame's forked streams and is the same on any pool size.
class flaky_classifier final : public human_classifier {
public:
    flaky_classifier(const human_classifier& inner, double failure_probability)
        : inner_{&inner}, failure_probability_{failure_probability} {}

    bool is_human(const point_cloud& cluster, rng& random) const override;
    std::string name() const override { return "Flaky[" + inner_->name() + "]"; }

    std::uint64_t faults_raised() const { return faults_.load(std::memory_order_relaxed); }

private:
    const human_classifier* inner_;
    double failure_probability_;
    mutable std::atomic<std::uint64_t> faults_{0};
};

}  // namespace hawc
