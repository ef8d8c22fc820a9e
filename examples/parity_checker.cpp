// Golden-corpus parity checker: the record/replay differential harness's
// CLI. `record` regenerates the checked-in golden artifacts (two recorded
// frame corpora, the fp32 reference weights, the int8 edge model, and the
// featurizer's object pool) and immediately re-validates the files it
// wrote. `check` loads the artifacts and replays every implementation
// pair the harness knows — fp32 vs int8 through the full supervisor,
// per-cluster fp32 vs int8 logits, 1 vs N engine threads, adaptive vs
// fixed-eps clustering — exiting nonzero when a gating pair diverges.
//
//   parity_checker record <golden-dir>
//   parity_checker check  <golden-dir> [--metrics]
//
// Plus `verify`, which checks any corpus container (replay/container.hpp)
// — a golden corpus or a multi-pole corpus set — by streaming every
// chunk of every stream once (checksums + decode):
//
//   parity_checker verify <container>
//
// Everything that defines the golden setup (sensor geometry, model
// architecture, seeds) is a constant below: `check` rebuilds the exact
// model skeleton before loading weights, so the artifacts carry no
// configuration of their own beyond the serialized tensors.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "classifiers/hawc_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "replay/container.hpp"
#include "replay/model_io.hpp"
#include "replay/parity_checker.hpp"
#include "replay/replay_driver.hpp"
#include "telemetry/export.hpp"

using namespace hawc;

namespace {

// ---- The golden configuration -------------------------------------------
// A deliberately small sensor (16 channels x 360 azimuth steps instead of
// the deployment 32 x 2048) keeps the checked-in corpora a few hundred
// kilobytes while still producing multi-cluster frames.

constexpr std::uint64_t dataset_seed = 404;
constexpr std::uint64_t model_seed = 11;
constexpr std::uint64_t clean_seed = 2024;
constexpr std::uint64_t degraded_seed = 6021;
constexpr std::size_t golden_target_points = 225;  // 15 x 15 projection grid

capture_config golden_capture() {
    capture_config config;
    config.sensor.channels = 24;
    config.sensor.azimuth_steps = 720;
    config.min_cluster_points = 10;
    return config;
}

hawc_config golden_model_config() {
    hawc_config config;
    config.features.upsample.target_points = golden_target_points;
    config.features.projection.target_points = golden_target_points;
    config.conv_channels[0] = 8;
    config.conv_channels[1] = 12;
    config.conv_channels[2] = 16;
    config.hidden_units = 32;
    config.training.epochs = 20;
    config.training.lr_decay_factor = 0.3;
    config.training.lr_decay_period = 6;
    return config;
}

supervisor_config golden_supervisor_config() {
    supervisor_config config;
    config.capture = golden_capture();
    return config;
}

struct golden_paths {
    std::filesystem::path clean;
    std::filesystem::path degraded;
    std::filesystem::path weights;
    std::filesystem::path qmodel;
    std::filesystem::path pool;

    explicit golden_paths(const std::filesystem::path& dir)
        : clean{dir / "clean.frames"},
          degraded{dir / "degraded.frames"},
          weights{dir / "hawc_fp32.weights"},
          qmodel{dir / "hawc_int8.qmodel"},
          pool{dir / "object.pool"} {}
};

// ---- The parity suite ----------------------------------------------------

struct loaded_golden {
    replay::frame_corpus clean;
    replay::frame_corpus degraded;
    hawc_model model;          // fp32 reference (weights loaded from disk)
    quantized_model int8;
};

loaded_golden load_golden(const golden_paths& paths) {
    object_pool pool = replay::load_object_pool_file(paths.pool);
    rng skeleton_rng{model_seed};  // init weights are overwritten by load
    loaded_golden golden{
        replay::load_corpus_file(paths.clean),
        replay::load_corpus_file(paths.degraded),
        hawc_model{golden_model_config(), std::move(pool), skeleton_rng},
        replay::load_quantized_file(paths.qmodel),
    };
    replay::load_weights_file(paths.weights, golden.model.network());
    return golden;
}

/// Run every pair over the golden artifacts. Returns false when a gating
/// pair diverged (fp32-vs-int8 and thread parity gate; the ladder pair is
/// reported but informational — its rungs are different estimators).
bool run_suite(loaded_golden& golden, telemetry::metrics_registry& metrics) {
    const supervisor_config sup = golden_supervisor_config();
    const auto& extractor = golden.model.extractor();
    const quantized_classifier int8{golden.int8,
                                    [&extractor](const point_cloud& c, rng& rr) {
                                        return extractor.extract(c, rr);
                                    },
                                    "HAWC-int8"};

    bool ok = true;
    auto gate = [&](const replay::parity_report& report) {
        std::cout << report.summary() << "\n";
        if (!report.passed()) ok = false;
    };

    for (const replay::frame_corpus* corpus : {&golden.clean, &golden.degraded}) {
        gate(replay::check_count_parity("fp32_vs_int8_counts_" + corpus->name, *corpus, sup,
                                        golden.model, int8, &metrics));
        gate(replay::check_thread_parity(*corpus, sup, int8, {}, &metrics));
    }
    gate(replay::check_logit_parity(golden.clean, sup.capture, extractor,
                                    golden.model.network(), golden.int8, &metrics));

    // Informational: the ladder's rung-1 clusterer vs the adaptive stage.
    const replay::parity_report ladder = replay::check_ladder_divergence(
        golden.clean, sup.capture, golden.model, sup.fallback_eps, {}, &metrics);
    std::cout << ladder.summary() << " (informational)\n";
    return ok;
}

int run_record(const std::filesystem::path& dir) {
    std::filesystem::create_directories(dir);
    const golden_paths paths{dir};

    std::cout << "Training the golden fp32 model...\n";
    single_person_dataset_config ds_cfg;
    ds_cfg.human_samples = 300;
    ds_cfg.object_samples = 300;
    ds_cfg.seed = dataset_seed;
    ds_cfg.capture = golden_capture();
    const single_person_dataset ds = build_single_person_dataset(ds_cfg);

    rng random{model_seed};
    hawc_model model{golden_model_config(), ds.pool, random};
    model.train(ds.train, nullptr, random);
    const quantized_model q = model.quantize(ds.train, random, 80);

    std::cout << "Recording golden corpora...\n";
    replay::record_config clean_cfg;
    clean_cfg.name = "clean";
    clean_cfg.seed = clean_seed;
    clean_cfg.frames = 8;
    clean_cfg.capture = golden_capture();

    replay::record_config degraded_cfg = clean_cfg;
    degraded_cfg.name = "degraded";
    degraded_cfg.seed = degraded_seed;
    degraded_cfg.frames = 6;
    degraded_cfg.inject_faults = true;
    degraded_cfg.faults.beam_dropout_prob = 0.25;
    degraded_cfg.faults.range_jitter_prob = 0.25;
    degraded_cfg.faults.non_finite_prob = 0.25;
    degraded_cfg.faults.duplicate_points_prob = 0.25;

    const replay::frame_corpus clean = replay::record_corpus(clean_cfg);
    const replay::frame_corpus degraded = replay::record_corpus(degraded_cfg);

    replay::save_corpus_file(paths.clean, clean);
    replay::save_corpus_file(paths.degraded, degraded);
    replay::save_weights_file(paths.weights, model.network());
    replay::save_quantized_file(paths.qmodel, q);
    replay::save_object_pool_file(paths.pool, ds.pool);
    std::cout << "Wrote " << dir.string() << " (clean " << clean.total_points()
              << " pts / degraded " << degraded.total_points() << " pts)\n";

    // Validate the artifacts exactly as CI will consume them: reload from
    // disk and run the full suite on the loaded copies.
    std::cout << "\nValidating the written artifacts...\n";
    telemetry::metrics_registry metrics;
    loaded_golden golden = load_golden(paths);
    const bool ok = run_suite(golden, metrics);
    std::cout << (ok ? "\nGolden artifacts validated.\n"
                     : "\nRecorded artifacts FAIL their own parity suite; adjust the "
                       "golden seeds/config before checking them in.\n");
    return ok ? 0 : 1;
}

int run_check(const std::filesystem::path& dir, bool dump_metrics) {
    const golden_paths paths{dir};
    telemetry::metrics_registry metrics;
    bool ok = false;
    try {
        loaded_golden golden = load_golden(paths);
        ok = run_suite(golden, metrics);
    } catch (const std::exception& e) {
        std::cerr << "parity_checker: " << e.what() << "\n";
        return 2;
    }
    if (dump_metrics) std::cout << "\n" << telemetry::to_prometheus(metrics);
    std::cout << (ok ? "\nPARITY OK\n" : "\nPARITY REGRESSION\n");
    return ok ? 0 : 1;
}

// ---- corpus container verify ---------------------------------------------

int run_verify(const std::filesystem::path& container) {
    replay::container_reader reader{container};

    // Stream every frame of every stream: each chunk is read, checksummed
    // and decoded exactly once, holding one chunk at a time.
    std::size_t frames = 0;
    std::size_t points = 0;
    for (std::uint32_t s = 0; s < reader.stream_count(); ++s) {
        for (std::uint64_t i = 0; i < reader.frame_count(s); ++i) {
            const replay::frame_record& frame = reader.frame(s, i);
            ++frames;
            points += frame.cloud.size();
        }
    }
    std::uint64_t stored = 0;
    std::uint64_t uncompressed = 0;
    for (const replay::chunk_entry& chunk : reader.chunks()) {
        stored += chunk.stored_size;
        uncompressed += chunk.uncompressed_size;
    }
    std::cout << "container OK: " << reader.stream_count() << " stream(s), " << frames
              << " frames, " << points << " points, " << reader.chunks().size()
              << " chunks, " << stored << " B stored / " << uncompressed
              << " B raw (ratio "
              << (stored > 0 ? static_cast<double>(uncompressed) / static_cast<double>(stored)
                             : 0.0)
              << "x), peak cache " << reader.cache_capacity() << " chunk(s)\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool dump_metrics = false;
    std::string mode;
    std::vector<std::filesystem::path> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics") == 0) {
            dump_metrics = true;
        } else if (mode.empty()) {
            mode = argv[i];
        } else {
            paths.emplace_back(argv[i]);
        }
    }

    try {
        if (mode == "record") {
            return run_record(paths.empty() ? "data/golden" : paths[0]);
        }
        if (mode == "check") {
            return run_check(paths.empty() ? "data/golden" : paths[0], dump_metrics);
        }
        if (mode == "verify" && paths.size() == 1) return run_verify(paths[0]);
    } catch (const std::exception& e) {
        std::cerr << "parity_checker: " << e.what() << "\n";
        return 2;
    }
    std::cerr << "usage: parity_checker record|check [golden-dir] [--metrics]\n"
                 "       parity_checker verify <container>\n";
    return 2;
}
