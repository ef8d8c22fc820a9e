#include "bench_common.hpp"

#include <cstdlib>

#include "clustering/adaptive_eps.hpp"
#include "common/error.hpp"
#include "preprocess/ingest.hpp"

namespace hawc::bench {

bool fast_mode() {
    const char* env = std::getenv("HAWC_BENCH_FAST");
    return env != nullptr && std::string{env} == "1";
}

std::size_t scaled(std::size_t full, std::size_t fast) { return fast_mode() ? fast : full; }

single_person_dataset standard_dataset() {
    single_person_dataset_config cfg;
    cfg.human_samples = scaled(1200, 250);
    cfg.object_samples = scaled(1200, 250);
    cfg.capture.min_cluster_points = 20;
    cfg.seed = 42;
    std::cerr << "[bench] building single-person dataset (" << cfg.human_samples << "+"
              << cfg.object_samples << " samples)...\n";
    stopwatch sw;
    auto ds = build_single_person_dataset(cfg);
    std::cerr << "[bench] dataset ready in " << static_cast<int>(sw.elapsed_ms() / 1000.0)
              << " s: train=" << ds.train.size() << " test=" << ds.test.size()
              << " N'_max=" << ds.target_points << "\n";
    return ds;
}

crowd_dataset_config standard_crowd_config() {
    crowd_dataset_config cfg;
    cfg.scenes = scaled(80, 25);
    cfg.max_people = 8;
    cfg.max_objects = 4;
    cfg.seed = 99;
    cfg.capture.min_cluster_points = 20;
    return cfg;
}

std::vector<crowd_sample> standard_crowd_dataset() {
    const auto cfg = standard_crowd_config();
    std::cerr << "[bench] building crowd dataset (" << cfg.scenes << " scenes)...\n";
    return build_crowd_dataset(cfg);
}

hawc_config standard_hawc_config(const single_person_dataset& ds) {
    hawc_config cfg;
    cfg.features.upsample.target_points = ds.target_points;
    cfg.features.projection.target_points = ds.target_points;
    cfg.training.epochs = scaled(20, 8);
    cfg.training.lr_decay_factor = 0.3;
    cfg.training.lr_decay_period = 8;
    return cfg;
}

pointnet_config standard_pointnet_config(const single_person_dataset& ds) {
    pointnet_config cfg;
    cfg.upsample.target_points = ds.target_points;
    cfg.training.epochs = scaled(16, 5);
    cfg.training.lr_decay_factor = 0.3;
    cfg.training.lr_decay_period = 8;
    return cfg;
}

autoencoder_config standard_autoencoder_config() {
    autoencoder_config cfg;
    cfg.reconstruction_epochs = scaled(20, 8);
    cfg.head_training.epochs = scaled(20, 8);
    return cfg;
}

hawc_model train_standard_hawc(const single_person_dataset& ds, rng& random) {
    hawc_model model{standard_hawc_config(ds), ds.pool, random};
    std::cerr << "[bench] training HAWC (" << model.parameter_count() << " params)...\n";
    stopwatch sw;
    model.train(ds.train, nullptr, random);
    std::cerr << "[bench] HAWC trained in " << static_cast<int>(sw.elapsed_ms() / 1000.0)
              << " s\n";
    return model;
}

evaluation evaluate(std::span<const crowd_sample> samples, rng& random,
                    const count_frame_fn& count_frame) {
    HAWC_REQUIRE(!samples.empty(), "cannot evaluate on an empty dataset");
    counting_accumulator acc;
    latency_recorder latency;
    for (const auto& sample : samples) {
        std::size_t counted = 0;
        latency.measure([&] { counted = count_frame(sample.raw, random); });
        acc.add(static_cast<double>(counted), static_cast<double>(sample.ground_truth));
    }
    return {acc.metrics(), latency.mean_ms(), latency.stddev_ms()};
}

std::size_t count_with(const crowd_counter& counter, const clusterer_fn& clusterer,
                       const point_cloud& raw, rng& random) {
    const capture_config& config = counter.config();
    const point_cloud ingested = ingest(raw, config.roi, config.ground);
    if (ingested.empty()) return 0;
    return counter.count_clusters(clusterer(ingested), random).count;
}

clusterer_fn adaptive_clusterer(const capture_config& config) {
    return [clustering = config.clustering](const point_cloud& cloud) {
        return adaptive_dbscan(cloud, clustering).clusters.extract_clusters(cloud);
    };
}

void print_header(const std::string& table_name, const std::string& description) {
    std::cout << "\n==== " << table_name << " ====\n"
              << description << "\n";
    if (fast_mode()) std::cout << "(HAWC_BENCH_FAST=1: reduced configuration)\n";
    std::cout << "\n";
}

void print_paper_note(const std::string& note) { std::cout << "paper: " << note << "\n"; }

}  // namespace hawc::bench
