#pragma once

// The classification stage of the crowd counting pipeline (paper Figure
// 3): size-filter the clusters, split merged ones, classify each and
// count the "Human" ones. Generic over the classifier (HAWC-CC /
// PointNet-CC / AutoEncoder-CC / OC-SVM-CC, fp32 or int8). The whole
// per-frame pipeline (ingest -> adaptive DBSCAN -> this stage) is
// frame_supervisor::process (runtime/supervisor.hpp); Table IV's
// alternative clustering stages compose ingest -> clusterer_fn ->
// count_clusters from the public calls.

#include <functional>

#include "classifiers/classifier.hpp"
#include "common/timer.hpp"
#include "counting/metrics.hpp"
#include "dataset/builders.hpp"
#include "telemetry/trace.hpp"

namespace hawc {

/// Alternative clustering stage (Table IV): ingested cloud -> clusters.
using clusterer_fn = std::function<std::vector<point_cloud>(const point_cloud&)>;

/// Merged-cluster handling. In dense crowds DBSCAN can merge adjacent
/// pedestrians into one cluster; such a mega-cluster neither looks like
/// a single person to the classifier nor should count as one. When a
/// cluster is wider than any single person (1.1 m), the counter
/// estimates how many people could occupy its ground footprint (occupied
/// 0.3 m xy grid cells times cell area over a 0.36 m^2 per-person
/// footprint, at most 15), splits it into that many person-sized
/// sub-clusters with k-means, and classifies each sub-cluster
/// individually. This is an extension over the paper's described
/// pipeline — required to keep Table VI counts near-linear at
/// 2+ people/m^2 — and can be disabled to recover plain
/// one-per-cluster counting.
struct multiplicity_config {
    bool enabled = true;
};

/// Estimated person capacity of an oversized cluster's footprint.
std::size_t estimate_multiplicity(const point_cloud& cluster, const multiplicity_config& config);

/// Result of the classification stage.
struct cluster_count_result {
    std::size_t count = 0;     // clusters (or sub-clusters) classified human
    std::size_t examined = 0;  // clusters meeting the minimum size
    bool truncated = false;    // classification stopped at the deadline
};

class crowd_counter {
public:
    /// `classifier` must outlive the counter.
    crowd_counter(const capture_config& config, const human_classifier& classifier);

    /// Adjust or disable merged-cluster multiplicity estimation.
    void set_multiplicity(const multiplicity_config& config) { multiplicity_ = config; }
    const multiplicity_config& multiplicity() const { return multiplicity_; }

    /// Size-filter, multiplicity-split and classify pre-built clusters.
    /// The frame supervisor calls this after clustering under its own
    /// fallback policy. When `time_budget` is armed and expires, the
    /// remaining clusters are skipped and the result is flagged truncated.
    ///
    /// Clusters fan out across the global pool, largest first, each on
    /// its own forked rng stream; the streams and the reduction order are
    /// fixed by input order before any worker runs, so the result is
    /// identical for every thread count (including one).
    ///
    /// With a telemetry handle, each examined cluster emits a
    /// "classify_cluster" span under `telem.parent` (workers record into
    /// the shared sink) and per-cluster counters are bumped.
    cluster_count_result count_clusters(std::span<const point_cloud> clusters, rng& random,
                                        const deadline& time_budget = {},
                                        const telemetry_handle& telem = {}) const;

    const capture_config& config() const { return config_; }
    std::string name() const { return classifier_->name() + "-CC"; }

private:
    /// People contributed by one size-qualified cluster: classify it, or
    /// for oversized clusters split and vote (see multiplicity_config).
    std::size_t count_one(const point_cloud& cluster, rng& random) const;

    capture_config config_;
    const human_classifier* classifier_;
    multiplicity_config multiplicity_{};
};

/// Convenience factories for Table IV's alternative clustering stages.
clusterer_fn make_fixed_eps_clusterer(double eps, const capture_config& config);
clusterer_fn make_hierarchical_clusterer(double cut_distance, const capture_config& config);

}  // namespace hawc
