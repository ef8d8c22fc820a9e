// Campus walkway monitoring: simulate a stretch of pedestrian traffic
// (Poisson arrivals crossing the walkway) and produce the time series a
// smart blue light pole would report — per-frame counts, a traffic
// histogram, and peak detection.
//
// This is the paper's motivating application: "popular routes, peak
// times, and common gathering areas" from privacy-preserving counts.

#include <iostream>

#include "classifiers/hawc_model.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernels/kernels.hpp"
#include "runtime/supervisor.hpp"
#include "sim/trajectory.hpp"

using namespace hawc;

int main() try {
    // Resolve the kernel tier and the pool first: a bad HAWC_KERNEL_ISA or
    // HAWC_THREADS fails here, before any dataset or training work.
    kernels::active_kernels();
    global_pool();

    // ---- Train a compact model (small dataset keeps the demo quick) ----
    std::cout << "Preparing the classifier...\n";
    single_person_dataset_config ds_cfg;
    ds_cfg.human_samples = 400;
    ds_cfg.object_samples = 400;
    ds_cfg.capture.min_cluster_points = 20;
    const single_person_dataset ds = build_single_person_dataset(ds_cfg);

    rng random{7};
    hawc_config model_cfg;
    model_cfg.features.upsample.target_points = ds.target_points;
    model_cfg.features.projection.target_points = ds.target_points;
    model_cfg.training.epochs = 15;
    model_cfg.training.lr_decay_factor = 0.3;
    model_cfg.training.lr_decay_period = 8;
    hawc_model model{model_cfg, ds.pool, random};
    model.train(ds.train, nullptr, random);

    // ---- Simulate 10 minutes of traffic with a mid-session rush ----
    std::cout << "Simulating walkway traffic (10 minutes, rush at 4-7 min)...\n";
    capture_config capture_cfg;
    capture_cfg.min_cluster_points = 20;
    const scanner sensor{capture_cfg.sensor};
    frame_supervisor supervisor{without_deadlines({.capture = capture_cfg}), model};

    rng traffic_rng{2025};
    const traffic_schedule calm{traffic_rng, 600.0, /*arrivals_per_minute=*/6.0};
    const traffic_schedule rush{traffic_rng, 180.0, /*arrivals_per_minute=*/30.0};

    running_stats count_error;
    histogram load_histogram{0.0, 12.0, 12};
    std::size_t peak_count = 0;
    double peak_time = 0.0;

    std::cout << "\n  time   truth  counted  bar\n";
    for (double t = 10.0; t < 600.0; t += 20.0) {
        // Superimpose the rush window onto the base traffic.
        scene frame = calm.scene_at(t, traffic_rng);
        std::size_t truth = calm.count_at(t);
        if (t >= 240.0 && t < 420.0) {
            const scene extra = rush.scene_at(t - 240.0, traffic_rng);
            for (const auto& e : extra.entities()) {
                if (e.kind == entity_kind::human) {
                    human_params p;
                    p.height_m = e.height_m;
                    frame.add_human(p, e.ground_position);
                    ++truth;
                }
            }
        }

        const scan_result scan_data =
            sensor.scan(frame.primitives(), traffic_rng, capture_cfg.scan);
        const std::size_t visible = visible_human_count(frame, scan_data, capture_cfg);
        const frame_report result = supervisor.process(scan_data.to_cloud(), traffic_rng);

        count_error.add(static_cast<double>(result.count) - static_cast<double>(visible));
        load_histogram.add(static_cast<double>(result.count));
        if (result.count > peak_count) {
            peak_count = result.count;
            peak_time = t;
        }

        std::printf("  %5.0fs  %4zu   %5zu    %s\n", t, visible, result.count,
                    std::string(result.count, '#').c_str());
    }

    std::cout << "\nSummary\n";
    std::cout << "  mean count error vs visible truth: " << count_error.mean() << " (sd "
              << count_error.stddev() << ")\n";
    std::cout << "  peak load: " << peak_count << " people at t=" << peak_time
              << " s (rush window was 240-420 s)\n";
    std::cout << "  load distribution (people per frame):\n";
    for (const auto& row : load_histogram.ascii_rows(30)) std::cout << "    " << row << "\n";
    return 0;
} catch (const std::exception& e) {
    std::cerr << "campus_walkway: " << e.what() << "\n";
    return 2;
}
