// End-to-end integration tests: simulator -> dataset -> training ->
// quantization -> crowd counting, at reduced scale.

#include <gtest/gtest.h>

#include <memory>

#include "classifiers/hawc_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "preprocess/ingest.hpp"
#include "runtime/supervisor.hpp"

namespace hawc {
namespace {

hawc_config model_config(const single_person_dataset& ds) {
    hawc_config cfg;
    cfg.features.upsample.target_points = ds.target_points;
    cfg.features.projection.target_points = ds.target_points;
    cfg.training.epochs = 24;
    cfg.training.lr_decay_factor = 0.3;
    cfg.training.lr_decay_period = 10;
    return cfg;
}

struct fixture {
    single_person_dataset ds;
    crowd_dataset_config crowd_cfg;
    std::vector<crowd_sample> crowd;
    std::unique_ptr<hawc_model> model;  // trained once, shared by tests

    fixture() {
        single_person_dataset_config cfg;
        cfg.human_samples = 250;
        cfg.object_samples = 250;
        cfg.capture.min_cluster_points = 20;
        ds = build_single_person_dataset(cfg);

        crowd_cfg.scenes = 10;
        crowd_cfg.max_people = 4;
        crowd = build_crowd_dataset(crowd_cfg);

        rng r{1};
        model = std::make_unique<hawc_model>(model_config(ds), ds.pool, r);
        model->train(ds.train, nullptr, r);
    }
};

fixture& shared_fixture() {
    static fixture f;
    return f;
}

/// Mean absolute count error over the crowd dataset, every capture
/// counted by `count_frame`.
template <typename CountFrame>
double crowd_mae(const fixture& f, rng& random, CountFrame&& count_frame) {
    counting_accumulator acc;
    for (const auto& s : f.crowd) {
        acc.add(static_cast<double>(count_frame(s.raw, random)),
                static_cast<double>(s.ground_truth));
    }
    return acc.metrics().mae;
}

/// crowd_mae through the production frame path, deadlines off.
double supervised_mae(const fixture& f, const human_classifier& classifier, rng& random) {
    frame_supervisor supervisor{without_deadlines({.capture = f.crowd_cfg.capture}),
                                classifier};
    return crowd_mae(f, random, [&](const point_cloud& raw, rng& r) {
        return supervisor.process(raw, r).count;
    });
}

TEST(integration, dataset_is_learnable_by_hawc) {
    auto& f = shared_fixture();
    rng r{1};
    const auto metrics = f.model->evaluate(f.ds.test, r);
    EXPECT_GT(metrics.accuracy, 0.75);
}

TEST(integration, end_to_end_crowd_counting) {
    auto& f = shared_fixture();
    rng r{2};
    const double mae = supervised_mae(f, *f.model, r);
    // Small training budget: just require counting to be clearly better
    // than a trivial always-zero counter.
    double zero_mae = 0.0;
    for (const auto& s : f.crowd) zero_mae += static_cast<double>(s.ground_truth);
    zero_mae /= static_cast<double>(f.crowd.size());
    EXPECT_LT(mae, zero_mae);
}

TEST(integration, quantized_pipeline_end_to_end) {
    auto& f = shared_fixture();
    rng r{3};
    auto q = f.model->quantize(f.ds.train, r);
    const auto& extractor = f.model->extractor();
    quantized_classifier int8{std::move(q),
                              [&extractor](const point_cloud& c, rng& rr) {
                                  return extractor.extract(c, rr);
                              },
                              "HAWC-int8"};
    const auto fp = f.model->evaluate(f.ds.test, r);
    const auto qm = int8.evaluate(f.ds.test, r);
    EXPECT_NEAR(qm.accuracy, fp.accuracy, 0.1);

    EXPECT_LE(supervised_mae(f, int8, r), 4.0);
}

TEST(integration, adaptive_beats_bad_fixed_eps) {
    auto& f = shared_fixture();
    rng r{4};
    const capture_config& capture = f.crowd_cfg.capture;
    const crowd_counter counter{capture, *f.model};
    const clusterer_fn fixed_tiny = make_fixed_eps_clusterer(0.02, capture);

    const double adaptive_mae = supervised_mae(f, *f.model, r);
    const double tiny_mae = crowd_mae(f, r, [&](const point_cloud& raw, rng& random) {
        const point_cloud ingested = ingest(raw, capture.roi, capture.ground);
        return counter.count_clusters(fixed_tiny(ingested), random).count;
    });
    // eps far below point spacing destroys clusters; adaptive must win.
    EXPECT_LE(adaptive_mae, tiny_mae);
}

}  // namespace
}  // namespace hawc
