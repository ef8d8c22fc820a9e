// Tests for the crowd-counting pipeline and its metrics, using mock
// classifiers so the pipeline mechanics are isolated from model quality.
// Raw captures are counted through frame_supervisor, the one frame
// pipeline; Table IV's clusterer factories are tested directly.

#include <gtest/gtest.h>

#include <algorithm>

#include "clustering/adaptive_eps.hpp"
#include "preprocess/ingest.hpp"
#include "runtime/supervisor.hpp"

namespace hawc {
namespace {

/// Classifier that always answers the same.
class constant_classifier final : public human_classifier {
public:
    explicit constant_classifier(bool answer) : answer_{answer} {}
    bool is_human(const point_cloud&, rng&) const override { return answer_; }
    std::string name() const override { return answer_ ? "AlwaysHuman" : "NeverHuman"; }

private:
    bool answer_;
};

/// Classifier keying on cluster height: a stand-in with real signal.
class height_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        const aabb box = cluster.bounds();
        const double height = box.size().z;
        return height > 1.0 && height < 2.2;
    }
    std::string name() const override { return "HeightRule"; }
};

TEST(counting_metrics, accumulator_math) {
    counting_accumulator acc;
    acc.add(5.0, 3.0);   // error +2
    acc.add(1.0, 2.0);   // error -1
    const counting_metrics m = acc.metrics();
    EXPECT_DOUBLE_EQ(m.mae, 1.5);
    EXPECT_DOUBLE_EQ(m.mse, 2.5);
    EXPECT_EQ(m.samples, 2u);
    EXPECT_DOUBLE_EQ(m.total_predicted, 6.0);
    EXPECT_DOUBLE_EQ(m.total_ground_truth, 5.0);
    EXPECT_NEAR(m.accuracy(), 1.0 - 1.0 / 5.0, 1e-12);
}

TEST(counting_metrics, empty_accumulator) {
    const counting_metrics m = counting_accumulator{}.metrics();
    EXPECT_DOUBLE_EQ(m.mae, 0.0);
    EXPECT_DOUBLE_EQ(m.mse, 0.0);
    EXPECT_EQ(m.samples, 0u);
    EXPECT_DOUBLE_EQ(m.accuracy(), 0.0);
}

TEST(counting_metrics, perfect_predictions) {
    counting_accumulator acc;
    for (int i = 0; i < 10; ++i) acc.add(i, i);
    const counting_metrics m = acc.metrics();
    EXPECT_DOUBLE_EQ(m.mae, 0.0);
    EXPECT_DOUBLE_EQ(m.mse, 0.0);
    EXPECT_DOUBLE_EQ(m.accuracy(), 1.0);
}

crowd_sample make_sample(std::size_t people, std::uint64_t seed) {
    crowd_dataset_config cfg;
    cfg.scenes = 1;
    cfg.max_people = 0;  // unused below
    rng r{seed};
    const scene s = make_crowd_scene(r, people, 1);
    const scanner sensor{cfg.capture.sensor};
    const auto scan_data = sensor.scan(s.primitives(), r, cfg.capture.scan);
    crowd_sample sample;
    sample.raw = scan_data.to_cloud();
    sample.ground_truth = visible_human_count(s, scan_data, cfg.capture);
    return sample;
}

/// Clusters of the ingested `raw` that reach the counter's minimum size.
std::size_t sized_clusters(const clusterer_fn& clusterer, const point_cloud& raw,
                           const capture_config& cfg) {
    const auto clusters = clusterer(ingest(raw, cfg.roi, cfg.ground));
    return static_cast<std::size_t>(
        std::count_if(clusters.begin(), clusters.end(), [&](const point_cloud& c) {
            return c.size() >= cfg.min_cluster_points;
        }));
}

TEST(crowd_counter_test, never_human_counts_zero) {
    const capture_config cfg;
    constant_classifier never{false};
    frame_supervisor supervisor{without_deadlines({.capture = cfg}), never};
    rng r{1};
    const auto sample = make_sample(3, 11);
    const frame_report result = supervisor.process(sample.raw, r);
    EXPECT_EQ(result.count, 0u);
    EXPECT_GT(result.cluster_count, 0u);
}

TEST(crowd_counter_test, always_human_counts_all_clusters) {
    const capture_config cfg;
    constant_classifier always{true};
    frame_supervisor supervisor{without_deadlines({.capture = cfg}), always};
    rng r{2};
    const auto sample = make_sample(3, 12);
    const frame_report result = supervisor.process(sample.raw, r);
    EXPECT_EQ(result.count, result.cluster_count);
}

TEST(crowd_counter_test, height_rule_tracks_ground_truth) {
    const capture_config cfg;
    height_classifier rule;
    frame_supervisor supervisor{without_deadlines({.capture = cfg}), rule};
    rng r{3};
    counting_accumulator acc;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const auto sample = make_sample(seed % 5, 100 + seed);
        const frame_report result = supervisor.process(sample.raw, r);
        acc.add(static_cast<double>(result.count),
                static_cast<double>(sample.ground_truth));
    }
    EXPECT_LT(acc.metrics().mae, 1.5);
}

TEST(crowd_counter_test, empty_capture_counts_zero) {
    const capture_config cfg;
    constant_classifier always{true};
    frame_supervisor supervisor{without_deadlines({.capture = cfg}), always};
    rng r{4};
    const frame_report result = supervisor.process(point_cloud{}, r);
    EXPECT_EQ(result.count, 0u);
    EXPECT_EQ(result.cluster_count, 0u);
}

TEST(crowd_counter_test, name_appends_cc) {
    const capture_config cfg;
    constant_classifier always{true};
    const crowd_counter counter{cfg, always};
    EXPECT_EQ(counter.name(), "AlwaysHuman-CC");
}

TEST(crowd_counter_test, fixed_eps_clusterer_plugs_in) {
    const capture_config cfg;
    const auto sample = make_sample(3, 31);
    EXPECT_GT(sized_clusters(make_fixed_eps_clusterer(0.3, cfg), sample.raw, cfg), 0u);
}

TEST(crowd_counter_test, hierarchical_clusterer_overcounts) {
    // The paper's observation: a diameter-capped hierarchical cut
    // fragments targets and overcounts relative to adaptive DBSCAN.
    const capture_config cfg;
    const auto sample = make_sample(4, 55);
    const clusterer_fn adaptive = [&cfg](const point_cloud& cloud) {
        return adaptive_dbscan(cloud, cfg.clustering).clusters.extract_clusters(cloud);
    };
    EXPECT_GE(sized_clusters(make_hierarchical_clusterer(0.4, cfg), sample.raw, cfg),
              sized_clusters(adaptive, sample.raw, cfg));
}

TEST(crowd_counter_test, hierarchical_clusterer_subsamples_large_clouds) {
    const capture_config cfg;
    // An oversized cloud (> max_points): the O(n^2) guard must subsample.
    point_cloud big;
    rng r{9};
    for (int i = 0; i < 9000; ++i) {
        big.push_back({r.uniform(12.0, 35.0), r.uniform(-2.5, 2.5), r.uniform(-2.0, -0.5)});
    }
    EXPECT_NO_THROW(make_hierarchical_clusterer(0.4, cfg)(big));
}

TEST(multiplicity, single_person_cluster_counts_one) {
    rng r{20};
    point_cloud person;
    for (int i = 0; i < 60; ++i) {
        person.push_back({20.0 + r.normal(0.0, 0.15), r.normal(0.0, 0.12),
                          -3.0 + r.uniform(0.2, 1.7)});
    }
    EXPECT_EQ(estimate_multiplicity(person, multiplicity_config{}), 1u);
}

TEST(multiplicity, merged_pair_counts_two) {
    rng r{21};
    point_cloud pair;
    for (int i = 0; i < 60; ++i) {
        pair.push_back({20.0 + r.normal(0.0, 0.15), r.normal(0.0, 0.12),
                        -3.0 + r.uniform(0.2, 1.7)});
        pair.push_back({20.9 + r.normal(0.0, 0.15), 0.4 + r.normal(0.0, 0.12),
                        -3.0 + r.uniform(0.2, 1.7)});
    }
    const std::size_t k = estimate_multiplicity(pair, multiplicity_config{});
    EXPECT_GE(k, 2u);
    EXPECT_LE(k, 4u);  // these synthetic bodies are wider than LiDAR donors
}

TEST(multiplicity, disabled_returns_one) {
    rng r{22};
    point_cloud wide;
    for (int i = 0; i < 200; ++i) {
        wide.push_back({15.0 + r.uniform(0.0, 4.0), r.uniform(-2.0, 2.0), -2.0});
    }
    multiplicity_config cfg;
    cfg.enabled = false;
    EXPECT_EQ(estimate_multiplicity(wide, cfg), 1u);
    cfg.enabled = true;
    EXPECT_GT(estimate_multiplicity(wide, cfg), 3u);
}

TEST(multiplicity, clamped_by_max) {
    rng r{23};
    point_cloud huge;
    for (int i = 0; i < 3000; ++i) {
        huge.push_back({10.0 + r.uniform(0.0, 20.0), r.uniform(-8.0, 8.0), -2.0});
    }
    // A 20 x 16 m footprint holds hundreds of people; the estimate stops
    // at the 15-per-cluster cap.
    EXPECT_EQ(estimate_multiplicity(huge, multiplicity_config{}), 15u);
}

TEST(multiplicity, empty_cluster_is_one) {
    EXPECT_EQ(estimate_multiplicity(point_cloud{}, multiplicity_config{}), 1u);
}

}  // namespace
}  // namespace hawc
