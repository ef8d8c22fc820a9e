// Quickstart: the full HAWC-CC pipeline in one file.
//
//   1. Build a synthetic single-person dataset (LiDAR simulator).
//   2. Train the HAWC classifier.
//   3. Scan a fresh crowd scene and count the people in it.
//
// Run time is dominated by training; pass --tiny for a fast demo.

#include <cstring>
#include <iostream>

#include "classifiers/hawc_model.hpp"
#include "common/timer.hpp"
#include "counting/crowd_counter.hpp"

using namespace hawc;

int main(int argc, char** argv) {
    const bool tiny = argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

    // ---- 1. Dataset ----
    std::cout << "Building the synthetic single-person dataset...\n";
    single_person_dataset_config ds_cfg;
    ds_cfg.human_samples = tiny ? 150 : 600;
    ds_cfg.object_samples = tiny ? 150 : 600;
    ds_cfg.capture.min_cluster_points = 20;
    const single_person_dataset ds = build_single_person_dataset(ds_cfg);
    std::cout << "  train=" << ds.train.size() << " test=" << ds.test.size()
              << " N'_max=" << ds.target_points << " points per cluster\n";

    // ---- 2. Train HAWC ----
    rng random{7};
    hawc_config model_cfg;
    model_cfg.features.upsample.target_points = ds.target_points;
    model_cfg.features.projection.target_points = ds.target_points;
    model_cfg.training.epochs = tiny ? 10 : 20;
    model_cfg.training.lr_decay_factor = 0.3;
    model_cfg.training.lr_decay_period = 8;

    hawc_model model{model_cfg, ds.pool, random};
    std::cout << "Training HAWC (" << model.parameter_count() << " parameters)...\n";
    const auto reports = model.train(ds.train, &ds.test, random);
    std::cout << "  final test accuracy: " << 100.0 * reports.back().test_accuracy << "%\n";

    // ---- 3. Count a crowd ----
    std::cout << "Scanning a fresh walkway scene...\n";
    capture_config capture_cfg;
    capture_cfg.min_cluster_points = 20;
    const scanner sensor{capture_cfg.sensor};

    rng scene_rng{2024};
    const scene walkway_scene = make_crowd_scene(scene_rng, /*human_count=*/4,
                                                 /*object_count=*/2);
    const scan_result scan_data =
        sensor.scan(walkway_scene.primitives(), scene_rng, capture_cfg.scan);
    const std::size_t visible =
        visible_human_count(walkway_scene, scan_data, capture_cfg);

    const crowd_counter counter{capture_cfg, model};
    const stopwatch sw;
    const count_result result = counter.count(scan_data.to_cloud(), scene_rng);
    const double count_ms = sw.elapsed_ms();

    std::cout << "  scene contains " << walkway_scene.human_count() << " people ("
              << visible << " visible to the sensor)\n";
    std::cout << "  " << counter.name() << " counted " << result.count << " in "
              << count_ms << " ms (" << result.cluster_count << " clusters examined)\n";
    return 0;
}
