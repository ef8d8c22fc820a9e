// Tests for the classifier implementations on small synthetic cluster
// sets: trainability, the uniform interface, quantized wrappers, the
// feature scaler, and OC-SVM behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "classifiers/autoencoder_model.hpp"
#include "classifiers/feature_scaler.hpp"
#include "classifiers/hawc_model.hpp"
#include "classifiers/ocsvm_model.hpp"
#include "classifiers/pointnet_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace hawc {
namespace {

/// Easy synthetic task: "humans" are tall columns, "objects" are flat
/// ground blobs. Every classifier should separate these.
point_cloud tall_cluster(rng& r, std::size_t n = 50) {
    point_cloud cloud;
    const double x = r.uniform(14.0, 30.0);
    const double y = r.uniform(-2.0, 2.0);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.push_back({x + r.normal(0.0, 0.12), y + r.normal(0.0, 0.12),
                         -3.0 + r.uniform(0.2, 1.7)});
    }
    return cloud;
}

point_cloud flat_cluster(rng& r, std::size_t n = 50) {
    point_cloud cloud;
    const double x = r.uniform(14.0, 30.0);
    const double y = r.uniform(-2.0, 2.0);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.push_back({x + r.normal(0.0, 0.5), y + r.normal(0.0, 0.5),
                         -3.0 + r.uniform(0.2, 0.5)});
    }
    return cloud;
}

struct toy_data {
    cluster_dataset train;
    cluster_dataset test;
    object_pool pool;
};

toy_data make_toy(rng& r, std::size_t per_class = 60) {
    toy_data data;
    for (std::size_t i = 0; i < per_class; ++i) {
        data.train.add(tall_cluster(r), label_human);
        data.train.add(flat_cluster(r), label_object);
    }
    for (std::size_t i = 0; i < per_class / 3; ++i) {
        data.test.add(tall_cluster(r), label_human);
        data.test.add(flat_cluster(r), label_object);
    }
    for (std::size_t i = 0; i < 20; ++i) data.pool.add_cloud(flat_cluster(r));
    return data;
}

hawc_config small_hawc_config() {
    hawc_config cfg;
    cfg.features.upsample.target_points = 64;
    cfg.features.projection.target_points = 64;
    cfg.training.epochs = 6;
    return cfg;
}

TEST(hawc_model_test, learns_toy_task) {
    rng r{1};
    toy_data data = make_toy(r);
    hawc_model model{small_hawc_config(), data.pool, r};
    model.train(data.train, nullptr, r);
    const auto m = model.evaluate(data.test, r);
    EXPECT_GT(m.accuracy, 0.9);
    EXPECT_GT(m.f1, 0.9);
}

TEST(hawc_model_test, parameter_count_near_paper) {
    rng r{2};
    object_pool pool;
    pool.add_cloud(flat_cluster(r));
    hawc_config cfg;
    cfg.features.upsample.target_points = 324;  // the paper's N'_max
    cfg.features.projection.target_points = 324;
    hawc_model model{cfg, pool, r};
    // Paper reports 62,114 parameters for its 3-conv + 2-FC network.
    EXPECT_NEAR(static_cast<double>(model.parameter_count()), 62114.0, 4000.0);
}

TEST(hawc_model_test, classifier_interface) {
    rng r{3};
    toy_data data = make_toy(r, 40);
    hawc_model model{small_hawc_config(), data.pool, r};
    model.train(data.train, nullptr, r);
    EXPECT_EQ(model.name(), "HAWC");
    const human_classifier& iface = model;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.test.size(); ++i) {
        if (iface.is_human(data.test.clusters[i], r) ==
            (data.test.labels[i] == label_human)) {
            ++correct;
        }
    }
    EXPECT_GT(static_cast<double>(correct) / static_cast<double>(data.test.size()), 0.85);
}

TEST(hawc_model_test, quantized_wrapper_agrees) {
    rng r{6};
    toy_data data = make_toy(r, 50);
    hawc_model model{small_hawc_config(), data.pool, r};
    model.train(data.train, nullptr, r);

    auto q = model.quantize(data.train, r, 40);
    const auto& extractor = model.extractor();
    quantized_classifier int8{std::move(q),
                              [&extractor](const point_cloud& c, rng& rr) {
                                  return extractor.extract(c, rr);
                              },
                              "HAWC-int8"};
    const auto fp_metrics = model.evaluate(data.test, r);
    const auto q_metrics = int8.evaluate(data.test, r);
    EXPECT_NEAR(q_metrics.accuracy, fp_metrics.accuracy, 0.1);
    EXPECT_EQ(int8.name(), "HAWC-int8");
}

TEST(pointnet_model_test, learns_toy_task) {
    rng r{7};
    toy_data data = make_toy(r);
    pointnet_config cfg;
    cfg.upsample.target_points = 64;
    cfg.training.epochs = 8;
    pointnet_model model{cfg, data.pool, r};
    model.train(data.train, nullptr, r);
    EXPECT_GT(model.evaluate(data.test, r).accuracy, 0.85);
    EXPECT_EQ(model.name(), "PointNet");
}

TEST(pointnet_model_test, paper_scale_parameter_count) {
    rng r{8};
    object_pool pool;
    pool.add_cloud(flat_cluster(r));
    pointnet_model model{pointnet_config::paper_scale(), pool, r};
    // Original PointNet classification network: ~748k parameters.
    EXPECT_NEAR(static_cast<double>(model.parameter_count()), 748000.0, 80000.0);
}

TEST(pointnet_model_test, featurize_shape) {
    rng r{9};
    object_pool pool;
    pool.add_cloud(flat_cluster(r));
    pointnet_config cfg;
    cfg.upsample.target_points = 128;
    pointnet_model model{cfg, pool, r};
    const tensor t = model.featurize_cluster(tall_cluster(r), r);
    EXPECT_EQ(t.shape(), (std::vector<std::size_t>{1, 128, 1, 3}));
    EXPECT_EQ(model.sample_shape(), (std::vector<std::size_t>{128, 1, 3}));
}

TEST(autoencoder_model_test, learns_toy_task) {
    rng r{10};
    toy_data data = make_toy(r);
    autoencoder_config cfg;
    cfg.head_training.epochs = 25;
    autoencoder_model model{cfg, r};
    model.train(data.train, nullptr, r);
    EXPECT_GT(model.evaluate(data.test).accuracy, 0.8);
    EXPECT_EQ(model.name(), "AutoEncoder");
}

TEST(autoencoder_model_test, featurize_before_training_throws) {
    rng r{11};
    autoencoder_model model{autoencoder_config{}, r};
    EXPECT_THROW(model.featurize_cluster(tall_cluster(r)), invalid_argument_error);
}

TEST(autoencoder_model_test, quantizes) {
    rng r{12};
    toy_data data = make_toy(r, 40);
    autoencoder_model model{autoencoder_config{}, r};
    model.train(data.train, nullptr, r);
    auto q = model.quantize(data.train, r, 30);
    EXPECT_GT(q.op_count(), 3u);
    // Quantized path produces sane logits on a test cluster.
    const tensor logits = q.forward(model.featurize_cluster(data.test.clusters[0]));
    EXPECT_EQ(logits.dim(1), 2u);
}

TEST(ocsvm_model_test, accepts_humans_rejects_outliers) {
    rng r{13};
    toy_data data = make_toy(r);
    ocsvm_model model;
    model.train(data.train);
    EXPECT_TRUE(model.trained());
    EXPECT_GT(model.support_vector_count(), 0u);

    // Training-distribution humans score higher than flat clusters.
    double human_score = 0.0;
    double object_score = 0.0;
    for (int i = 0; i < 20; ++i) {
        human_score += model.decision_value(tall_cluster(r));
        object_score += model.decision_value(flat_cluster(r));
    }
    EXPECT_GT(human_score, object_score);
    const auto m = model.evaluate(data.test);
    EXPECT_GT(m.accuracy, 0.6);
}

TEST(ocsvm_model_test, untrained_throws) {
    ocsvm_model model;
    rng r{14};
    EXPECT_THROW(model.decision_value(tall_cluster(r)), invalid_argument_error);
}

TEST(ocsvm_model_test, requires_positive_samples) {
    cluster_dataset only_objects;
    rng r{15};
    only_objects.add(flat_cluster(r), label_object);
    ocsvm_model model;
    EXPECT_THROW(model.train(only_objects), invalid_argument_error);
}

TEST(ocsvm_model_test, nu_bounds_support_fraction) {
    rng r{16};
    toy_data data = make_toy(r, 100);
    ocsvm_config cfg;
    cfg.nu = 0.05;
    ocsvm_model model{cfg};
    model.train(data.train);
    // With nu = 0.05 at least ~nu fraction are support vectors.
    EXPECT_GE(model.support_vector_count(), 5u);
}

TEST(feature_scaler_test, standardizes) {
    std::vector<tensor> features;
    rng r{17};
    for (int i = 0; i < 200; ++i) {
        tensor t{{1, 2}};
        t[0] = static_cast<float>(r.normal(10.0, 4.0));
        t[1] = static_cast<float>(r.normal(-3.0, 0.5));
        features.push_back(t);
    }
    feature_scaler scaler;
    scaler.fit(features);
    running_stats s0;
    running_stats s1;
    for (const auto& f : features) {
        const tensor t = scaler.transform(f);
        s0.add(t[0]);
        s1.add(t[1]);
    }
    EXPECT_NEAR(s0.mean(), 0.0, 0.05);
    EXPECT_NEAR(s0.stddev(), 1.0, 0.05);
    EXPECT_NEAR(s1.mean(), 0.0, 0.05);
}

TEST(feature_scaler_test, rejects_misuse) {
    feature_scaler scaler;
    tensor t{{1, 2}};
    EXPECT_THROW(scaler.transform(t), invalid_argument_error);
    EXPECT_THROW(scaler.fit({}), invalid_argument_error);
}

}  // namespace
}  // namespace hawc
