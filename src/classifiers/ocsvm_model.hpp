#pragma once

// One-Class SVM baseline (Schölkopf et al., nu-formulation) over the
// same standardized slice features as the AutoEncoder. Trained on the
// "Human" class only; decision f(x) = sum_i alpha_i K(x_i, x) - rho,
// classified human when f(x) >= 0. RBF kernel with gamma = 1/n_features
// and nu = 0.01, matching the paper's setup.

#include "classifiers/classifier.hpp"
#include "classifiers/feature_scaler.hpp"
#include "features/slice_features.hpp"

namespace hawc {

struct ocsvm_config {
    slice_feature_config features{};
    double nu = 0.01;             // bounds both training error and SV fraction
    double gamma = 0.0;           // 0 = auto: 1 / feature_count
    std::size_t max_sweeps = 200; // SMO sweeps over all pairs
    double tolerance = 1e-5;
};

class ocsvm_model final : public human_classifier {
public:
    explicit ocsvm_model(const ocsvm_config& config = {}) : config_{config} {}

    /// Fit on the positive (human) clusters of the training set only —
    /// one-class training never sees negatives.
    void train(const cluster_dataset& train_set);

    /// Signed decision value (>= 0 means human).
    double decision_value(const point_cloud& cluster) const;

    bool is_human(const point_cloud& cluster, rng& random) const override;
    std::string name() const override { return "OC-SVM"; }

    std::size_t support_vector_count() const;
    bool trained() const { return !alphas_.empty(); }

    /// Standard accuracy metrics against a labelled test set.
    struct metrics {
        double accuracy = 0.0;
        double precision = 0.0;
        double recall = 0.0;
        double f1 = 0.0;
    };
    metrics evaluate(const cluster_dataset& data) const;

private:
    std::vector<float> featurize(const point_cloud& cluster) const;
    double kernel(const std::vector<float>& a, const std::vector<float>& b) const;

    ocsvm_config config_;
    feature_scaler scaler_;
    std::vector<std::vector<float>> training_points_;
    std::vector<double> alphas_;
    double rho_ = 0.0;
    double gamma_ = 1.0;
};

}  // namespace hawc
