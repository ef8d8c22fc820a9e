#pragma once

// Uniform human/object classifier interface. The counting pipelines are
// generic over this: HAWC, PointNet, AutoEncoder, and OC-SVM (in fp32 or
// int8) all plug into the same HAWC-CC machinery.

#include <string>

#include "common/rng.hpp"
#include "features/cluster_dataset.hpp"

namespace hawc {

class human_classifier {
public:
    virtual ~human_classifier() = default;

    /// True if the cluster is classified as a person. `random` feeds the
    /// stochastic up-sampling step where applicable. Called concurrently
    /// from pool lanes, each with its own rng: any per-call randomness
    /// must come from `random`, and any shared mutable state must be
    /// synchronized.
    virtual bool is_human(const point_cloud& cluster, rng& random) const = 0;

    virtual std::string name() const = 0;
};

}  // namespace hawc
