// Perf snapshot for the parallel frame engine: times the hot kernels
// (including the 225-point HAP projection and the deployed golden int8
// net's forward) at several pool sizes, the fleet occupancy read path,
// the observability event pipeline, and the corpus-container
// codec/pack/stream-decode path, and emits one JSON document
// (BENCH_PR15.json via scripts/bench_snapshot.sh). The
// "baseline" block is the pre-engine measurement captured with the same
// methodology on the same container class, so current/baseline ratios
// are like-for-like. scripts/perf_gate.sh checks the threads_1 block
// against the ceilings — and the corpus_container block against the
// floors — in bench/perf_floor.json.
//
// Usage: bench_snapshot [thread_count...]   (default: 1 4)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clustering/adaptive_eps.hpp"
#include "clustering/dbscan.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "features/height_features.hpp"
#include "features/pipeline.hpp"
#include "fleet/occupancy.hpp"
#include "nn/activations.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/kernels.hpp"
#include "quant/calibrate.hpp"
#include "replay/codec.hpp"
#include "replay/container.hpp"
#include "replay/model_io.hpp"

using namespace hawc;

namespace {

// Pre-engine numbers (sequential kernels, allocating KD queries, naive
// conv2d) from the seed revision, measured by this same harness.
struct metrics {
    double kd_nearest_k9_us = 0.0;
    double kd_radius_us = 0.0;
    double dbscan_8k_ms = 0.0;
    double height_variation_8k_ms = 0.0;
    double adaptive_eps_8k_ms = 0.0;
    double conv2d_us = 0.0;
    double qconv_us = 0.0;
    double qdense_us = 0.0;
    double hap_projection_us = 0.0;
    double qforward_golden_us = 0.0;
};

// qdense was added to the harness in PR 4; its baseline is the serial
// run_dense measured just before that PR parallelized it. hap_projection
// came later; its baseline is the index sort whose comparator called
// std::hypot twice per comparison, measured just before the projection
// switched to sorting precomputed keys. qforward_golden's baseline is the
// int8 forward that quantized its input with a scalar loop, im2col'd with
// per-element bounds checks and requantized one pixel at a time, measured
// just before the per-thread-workspace forward replaced it (the other
// numbers are the seed revision's).
constexpr metrics baseline{3.4294, 1.0028, 11.221, 22.669, 16.181, 80.693, 145.371,
                           138.080, 49.350, 25.250};

/// Synthetic walkway crowd: upright person blobs inside the default ROI
/// plus clutter, ~8000 points at the default arguments.
point_cloud crowd_cloud(std::size_t people, std::size_t points_per_person,
                        std::uint64_t seed) {
    rng r{seed};
    point_cloud cloud;
    for (std::size_t p = 0; p < people; ++p) {
        const double cx = r.uniform(13.0, 34.0);
        const double cy = r.uniform(-2.2, 2.2);
        for (std::size_t i = 0; i < points_per_person; ++i) {
            cloud.push_back({cx + r.normal(0.0, 0.12), cy + r.normal(0.0, 0.12),
                             -2.55 + r.uniform(0.0, 1.7)});
        }
    }
    for (std::size_t i = 0; i < people * points_per_person / 4; ++i) {
        cloud.push_back({r.uniform(12.0, 35.0), r.uniform(-2.5, 2.5),
                         -2.55 + r.uniform(0.0, 0.3)});
    }
    return cloud;
}

template <typename Fn>
double time_ms(std::size_t reps, Fn&& fn) {
    fn();  // warm-up
    stopwatch sw;
    for (std::size_t i = 0; i < reps; ++i) fn();
    return sw.elapsed_ms() / static_cast<double>(reps);
}

metrics measure() {
    metrics m;
    const point_cloud cloud = crowd_cloud(100, 64, 42);

    const kd_tree tree{cloud};
    rng qr{7};
    std::vector<vec3> queries;
    for (int i = 0; i < 512; ++i) queries.push_back(cloud[qr.uniform_index(cloud.size())]);

    std::vector<neighbor> neighbors;
    m.kd_nearest_k9_us = 1000.0 / 512.0 * time_ms(20, [&] {
        double acc = 0;
        for (const auto& q : queries) {
            tree.nearest_into(q, 9, neighbors);
            acc += neighbors.back().distance;
        }
        volatile double sink = acc;
        (void)sink;
    });

    std::vector<std::size_t> found;
    m.kd_radius_us = 1000.0 / 512.0 * time_ms(20, [&] {
        std::size_t acc = 0;
        for (const auto& q : queries) {
            tree.radius_search_into(q, 0.3, found);
            acc += found.size();
        }
        volatile std::size_t sink = acc;
        (void)sink;
    });

    dbscan_config db;
    db.eps = 0.3;
    m.dbscan_8k_ms = time_ms(5, [&] {
        volatile std::size_t sink = dbscan(cloud, db).cluster_count;
        (void)sink;
    });

    m.height_variation_8k_ms = time_ms(5, [&] {
        volatile double sink = height_variation(cloud, 8).back();
        (void)sink;
    });

    m.adaptive_eps_8k_ms = time_ms(5, [&] {
        volatile double sink = adaptive_epsilon(cloud);
        (void)sink;
    });

    {
        rng r{4};
        conv2d conv{7, 16, 3, padding::same, r};
        tensor input{{1, 18, 18, 7}};
        for (std::size_t i = 0; i < input.size(); ++i) {
            input[i] = static_cast<float>(r.normal());
        }
        m.conv2d_us = 1000.0 * time_ms(200, [&] {
            volatile float sink = conv.forward(input, false)[0];
            (void)sink;
        });
    }

    {
        rng r{5};
        sequential net;
        net.emplace<conv2d>(7, 16, 3, padding::same, r);
        tensor input{{1, 18, 18, 7}};
        for (std::size_t i = 0; i < input.size(); ++i) {
            input[i] = static_cast<float>(r.normal());
        }
        quantized_model qm = quantize_model(net, {input});
        m.qconv_us = 1000.0 * time_ms(200, [&] {
            volatile float sink = qm.forward(input)[0];
            (void)sink;
        });
    }

    {
        rng r{6};
        sequential net;
        net.emplace<dense>(512, 98, r);
        net.emplace<relu>();
        net.emplace<dense>(98, 2, r);
        tensor input{{8, 512}};
        for (std::size_t i = 0; i < input.size(); ++i) {
            input[i] = static_cast<float>(r.normal());
        }
        quantized_model qm = quantize_model(net, {input.slice_sample(0)});
        m.qdense_us = 1000.0 * time_ms(500, [&] {
            volatile float sink = qm.forward(input)[0];
            (void)sink;
        });
    }

    {
        // HAP projection as cnn_feature_extractor::extract calls it: a
        // 60-point person padded with pool points to the 15 x 15 grid,
        // sigma measured on the cluster and zero on the padding.
        rng r{8};
        point_cloud cluster;
        for (int i = 0; i < 60; ++i) {
            cluster.push_back({20.0 + r.normal(0.0, 0.15), r.normal(0.0, 0.12),
                               -2.9 + r.uniform(0.0, 1.6)});
        }
        object_pool pool;
        pool.add_cloud(crowd_cloud(4, 64, 9));
        upsample_config up;
        up.target_points = 225;
        const point_cloud padded = upsample_cluster(cluster, up, pool, r);
        std::vector<double> sigma = height_variation(cluster, 8);
        sigma.resize(padded.size(), 0.0);
        projection_config cfg;
        cfg.target_points = 225;
        const vec3 anchor = cluster.centroid();
        m.hap_projection_us = 1000.0 * time_ms(500, [&] {
            volatile float sink = project_cluster(padded, anchor, cfg, sigma)[0];
            (void)sink;
        });
    }

    {
        // The deployed net (data/golden/hawc_int8.qmodel) on one 15 x 15
        // x 7 HAP image: conv -> pool -> conv -> pool -> conv -> dense x 2,
        // where per-sample work outside the GEMMs shows.
        rng r{10};
        const quantized_model qm = replay::load_quantized_file(
            std::filesystem::path{HAWC_GOLDEN_DIR} / "hawc_int8.qmodel");
        tensor input{{1, 15, 15, 7}};
        for (std::size_t i = 0; i < input.size(); ++i) {
            input[i] = static_cast<float>(r.normal());
        }
        m.qforward_golden_us = 1000.0 * time_ms(500, [&] {
            volatile float sink = qm.forward(input)[0];
            (void)sink;
        });
    }
    return m;
}

void print_metrics(const char* indent, const metrics& m) {
    std::printf("%s\"kd_nearest_k9_us_per_query\": %.4f,\n", indent, m.kd_nearest_k9_us);
    std::printf("%s\"kd_radius_us_per_query\": %.4f,\n", indent, m.kd_radius_us);
    std::printf("%s\"dbscan_8k_ms\": %.3f,\n", indent, m.dbscan_8k_ms);
    std::printf("%s\"height_variation_8k_ms\": %.3f,\n", indent, m.height_variation_8k_ms);
    std::printf("%s\"adaptive_eps_8k_ms\": %.3f,\n", indent, m.adaptive_eps_8k_ms);
    std::printf("%s\"conv2d_18x18_7to16_us\": %.3f,\n", indent, m.conv2d_us);
    std::printf("%s\"qconv_18x18_7to16_us\": %.3f,\n", indent, m.qconv_us);
    std::printf("%s\"qdense_b8_512to98to2_us\": %.3f,\n", indent, m.qdense_us);
    std::printf("%s\"hap_projection_225_us\": %.3f,\n", indent, m.hap_projection_us);
    std::printf("%s\"qforward_golden_us\": %.3f\n", indent, m.qforward_golden_us);
}

// Fleet occupancy read path: how fast the seqlock board absorbs
// publishes and serves snapshots, alone and under reader contention.
struct fleet_metrics {
    double publish_us = 0.0;
    double read_us = 0.0;
    double cached_read_us = 0.0;
    double contended_reads_per_us = 0.0;
};

fleet_metrics measure_fleet(std::size_t poles) {
    fleet_metrics m;
    fleet::occupancy_board board{poles};
    fleet::occupancy_snapshot snap;
    snap.poles.resize(poles);
    for (std::size_t i = 0; i < poles; ++i) {
        snap.poles[i].count = i;
        snap.poles[i].epoch = 1;
        snap.poles[i].rung = fleet::pole_rung::live;
        snap.aggregate += i;
        ++snap.included;
    }
    board.publish(snap);

    constexpr std::size_t reps = 4096;
    m.publish_us = 1000.0 / reps * time_ms(10, [&] {
        for (std::size_t i = 0; i < reps; ++i) {
            ++snap.tick;
            board.publish(snap);
        }
    });
    m.read_us = 1000.0 / reps * time_ms(10, [&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < reps; ++i) acc += board.read().aggregate;
        volatile std::uint64_t sink = acc;
        (void)sink;
    });
    {
        fleet::occupancy_reader reader{board};
        m.cached_read_us = 1000.0 / reps * time_ms(10, [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < reps; ++i) acc += reader.snapshot().aggregate;
            volatile std::uint64_t sink = acc;
            (void)sink;
        });
    }
    {
        // Three readers hammering the board while the writer republishes:
        // the service-facing contended read rate.
        constexpr std::size_t reads_per_thread = 200000;
        stopwatch sw;
        std::vector<std::thread> readers;
        for (int t = 0; t < 3; ++t) {
            readers.emplace_back([&board] {
                std::uint64_t acc = 0;
                for (std::size_t i = 0; i < reads_per_thread; ++i) {
                    acc += board.read().aggregate;
                }
                volatile std::uint64_t sink = acc;
                (void)sink;
            });
        }
        std::atomic<bool> done{false};
        std::thread writer{[&] {
            while (!done.load(std::memory_order_relaxed)) {
                ++snap.tick;
                board.publish(snap);
            }
        }};
        for (auto& r : readers) r.join();
        const double elapsed_us = sw.elapsed_ms() * 1000.0;
        done.store(true);
        writer.join();
        m.contended_reads_per_us = 3.0 * static_cast<double>(reads_per_thread) / elapsed_us;
    }
    return m;
}

// Observability hot paths: what one event, one recorded frame, and one
// SLO sweep cost a pole that is otherwise busy counting people.
struct obs_metrics {
    double event_publish_us = 0.0;
    double event_suppressed_us = 0.0;
    double recorder_record_us = 0.0;
    double slo_evaluate_us = 0.0;
    double json_tail_256_us = 0.0;
};

obs_metrics measure_obs() {
    obs_metrics m;
    constexpr std::size_t reps = 4096;

    telemetry::event ev = telemetry::make_event(
        telemetry::event_kind::stage_failure, telemetry::event_severity::warning,
        "bench stage failure");
    ev.set_pole("pole-0");
    ev.add_field("streak", 3.0);

    {
        obs::event_log accepting{{.capacity = 1024, .tokens_per_tick = 0.0, .burst = 0.0}};
        m.event_publish_us = 1000.0 / reps * time_ms(10, [&] {
            for (std::size_t i = 0; i < reps; ++i) accepting.publish(ev);
        });
        m.json_tail_256_us = 1000.0 * time_ms(20, [&] {
            volatile std::size_t sink = obs::to_json_lines(accepting.tail(256)).size();
            (void)sink;
        });
    }
    {
        // One token ever: after the first accept, every publish takes the
        // token-bucket rejection path.
        obs::event_log suppressing{{.capacity = 64, .tokens_per_tick = 0.0, .burst = 1.0}};
        suppressing.publish(ev);
        m.event_suppressed_us = 1000.0 / reps * time_ms(10, [&] {
            for (std::size_t i = 0; i < reps; ++i) suppressing.publish(ev);
        });
    }
    {
        const point_cloud frame = crowd_cloud(100, 64, 42);
        obs::flight_recorder recorder{{.frame_capacity = 16}, "pole-0", 7};
        const supervisor_carry carry;
        frame_report report;
        report.count = 100;
        constexpr std::size_t frames = 256;
        std::vector<point_cloud> inbox;
        auto refill = [&] {
            inbox.assign(frames, frame);
        };
        refill();
        double best = 1e300;
        for (int pass = 0; pass < 10; ++pass) {
            stopwatch sw;
            for (std::size_t i = 0; i < frames; ++i) {
                recorder.record(i, 100, std::move(inbox[i]), carry, report);
            }
            best = std::min(best, sw.elapsed_ms());
            refill();
        }
        m.recorder_record_us = 1000.0 * best / static_cast<double>(frames);
    }
    {
        telemetry::metrics_registry reg;
        telemetry::counter& dropped = reg.make_counter("bench_dropped_total", "bench");
        telemetry::counter& frames = reg.make_counter("bench_frames_total", "bench");
        telemetry::gauge& stale = reg.make_gauge("bench_staleness", "bench");
        stale.set(2.0);
        obs::slo_engine engine{reg, reg,
                               obs::parse_slo_rules(
                                   "alert drop_burn if "
                                   "ratio(bench_dropped_total/bench_frames_total) > 0.05 "
                                   "window 8/32 resolve 8\n"
                                   "alert staleness if value(bench_staleness) > 6 for 3\n")};
        std::uint64_t tick = 0;
        m.slo_evaluate_us = 1000.0 / reps * time_ms(10, [&] {
            for (std::size_t i = 0; i < reps; ++i) {
                frames.add(10);
                dropped.add(i % 50 == 0 ? 1 : 0);
                engine.evaluate(tick++);
            }
        });
    }
    return m;
}

// The corpus-container path (replay/container): packing a recorded
// corpus into chunked compressed "HWCC" form and streaming it back out,
// plus the raw codec on the two canonical inputs — float32 point clouds
// (the honest, nearly-incompressible case the fleet actually records)
// and redundant text (the JSONL/trace best case postmortem bundles see).
struct container_metrics {
    double uncompressed_mb = 0.0;
    double ratio = 1.0;              // uncompressed / stored, cloud corpus
    double pack_mbps = 0.0;          // uncompressed MB/s through pack_corpus
    double stream_decode_mbps = 0.0; // uncompressed MB/s through a frame walk
    double codec_cloud_compress_mbps = 0.0;
    double codec_cloud_decompress_mbps = 0.0;
    double codec_text_compress_mbps = 0.0;
    double codec_text_decompress_mbps = 0.0;
    double codec_text_ratio = 1.0;
};

container_metrics measure_container() {
    container_metrics m;

    replay::frame_corpus corpus;
    corpus.name = "bench";
    corpus.base_seed = 42;
    for (std::size_t f = 0; f < 32; ++f) {
        replay::frame_record rec;
        rec.ground_truth = 100;
        rec.cloud = replay::round_to_recorded(crowd_cloud(100, 64, 42 + f));
        corpus.frames.push_back(std::move(rec));
    }

    std::string packed;
    m.pack_mbps = 0.0;
    {
        std::uint64_t uncompressed = 0;
        std::uint64_t stored = 0;
        const double pack_ms = time_ms(3, [&] {
            std::ostringstream out;
            replay::pack_corpus(out, corpus, {.frames_per_chunk = 8});
            packed = out.str();
        });
        std::istringstream in{packed};
        replay::container_reader reader{in};
        for (const replay::chunk_entry& chunk : reader.chunks()) {
            uncompressed += chunk.uncompressed_size;
            stored += chunk.stored_size;
        }
        m.uncompressed_mb = static_cast<double>(uncompressed) / 1.0e6;
        m.ratio = static_cast<double>(uncompressed) / static_cast<double>(stored);
        m.pack_mbps = m.uncompressed_mb / (pack_ms / 1000.0);
        const double walk_ms = time_ms(3, [&] {
            std::istringstream walk_in{packed};
            replay::container_reader walker{walk_in};
            std::size_t acc = 0;
            for (std::uint64_t f = 0; f < walker.frame_count(0); ++f) {
                acc += walker.frame(0, f).cloud.size();
            }
            volatile std::size_t sink = acc;
            (void)sink;
        });
        m.stream_decode_mbps = m.uncompressed_mb / (walk_ms / 1000.0);
    }

    const auto codec_rate = [](const std::vector<char>& input, double* compress_mbps,
                               double* decompress_mbps) {
        const double mb = static_cast<double>(input.size()) / 1.0e6;
        std::vector<char> out;
        const double c_ms = time_ms(5, [&] {
            replay::lz_compress_into(input.data(), input.size(), out);
        });
        *compress_mbps = mb / (c_ms / 1000.0);
        std::vector<char> round(input.size());
        const double d_ms = time_ms(5, [&] {
            replay::lz_decompress_into(out.data(), out.size(), round.data(), round.size());
        });
        *decompress_mbps = mb / (d_ms / 1000.0);
        return static_cast<double>(input.size()) / static_cast<double>(out.size());
    };

    {
        std::vector<char> cloud_bytes;
        for (const auto& frame : corpus.frames) {
            for (const vec3& p : frame.cloud) {
                const float xyz[3] = {static_cast<float>(p.x), static_cast<float>(p.y),
                                      static_cast<float>(p.z)};
                const auto* raw = reinterpret_cast<const char*>(xyz);
                cloud_bytes.insert(cloud_bytes.end(), raw, raw + sizeof(xyz));
            }
            if (cloud_bytes.size() > (std::size_t{8} << 20)) break;
        }
        codec_rate(cloud_bytes, &m.codec_cloud_compress_mbps,
                   &m.codec_cloud_decompress_mbps);
    }
    {
        std::string text;
        while (text.size() < (std::size_t{4} << 20)) {
            text += "{\"kind\":\"stage_failure\",\"pole\":\"pole-0\",\"streak\":3}\n";
        }
        const std::vector<char> text_bytes(text.begin(), text.end());
        m.codec_text_ratio = codec_rate(text_bytes, &m.codec_text_compress_mbps,
                                        &m.codec_text_decompress_mbps);
    }
    return m;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::size_t> thread_counts;
    for (int i = 1; i < argc; ++i) {
        const long parsed = std::strtol(argv[i], nullptr, 10);
        if (parsed >= 1) thread_counts.push_back(static_cast<std::size_t>(parsed));
    }
    if (thread_counts.empty()) thread_counts = {1, 4};

    std::printf("{\n");
    std::printf("  \"bench\": \"hot-kernel perf snapshot (incl. int8 conv/dense)\",\n");
    std::printf("  \"cloud_points\": %zu,\n", crowd_cloud(100, 64, 42).size());
    std::printf("  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
    std::printf("  \"kernel_isa\": \"%s\",\n", kernels::active_kernels().name);
    std::printf("  \"note\": \"thread-count sweeps above hardware_concurrency time-share "
                "cores and cannot show wall-clock parallel speedup\",\n");
    std::printf("  \"baseline_seed_sequential\": {\n");
    print_metrics("    ", baseline);
    std::printf("  },\n");

    std::printf("  \"current\": {\n");
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        set_global_thread_count(thread_counts[t]);
        const metrics m = measure();
        std::printf("    \"threads_%zu\": {\n", thread_counts[t]);
        print_metrics("      ", m);
        std::printf("    }%s\n", t + 1 < thread_counts.size() ? "," : "");
    }
    std::printf("  },\n");

    const fleet_metrics fm = measure_fleet(16);
    std::printf("  \"fleet_occupancy_16_poles\": {\n");
    std::printf("    \"publish_us\": %.4f,\n", fm.publish_us);
    std::printf("    \"read_us\": %.4f,\n", fm.read_us);
    std::printf("    \"cached_read_us\": %.4f,\n", fm.cached_read_us);
    std::printf("    \"contended_reads_per_us_3_readers\": %.2f\n",
                fm.contended_reads_per_us);
    std::printf("  },\n");

    const obs_metrics om = measure_obs();
    std::printf("  \"obs_event_pipeline\": {\n");
    std::printf("    \"event_publish_us\": %.4f,\n", om.event_publish_us);
    std::printf("    \"event_suppressed_us\": %.4f,\n", om.event_suppressed_us);
    std::printf("    \"recorder_record_us\": %.4f,\n", om.recorder_record_us);
    std::printf("    \"slo_evaluate_2_rules_us\": %.4f,\n", om.slo_evaluate_us);
    std::printf("    \"events_to_jsonl_tail256_us\": %.2f\n", om.json_tail_256_us);
    std::printf("  },\n");

    const container_metrics cm = measure_container();
    std::printf("  \"corpus_container\": {\n");
    std::printf("    \"uncompressed_mb\": %.2f,\n", cm.uncompressed_mb);
    std::printf("    \"cloud_corpus_ratio\": %.3f,\n", cm.ratio);
    std::printf("    \"pack_mbps\": %.1f,\n", cm.pack_mbps);
    std::printf("    \"stream_decode_mbps\": %.1f,\n", cm.stream_decode_mbps);
    std::printf("    \"codec_cloud_compress_mbps\": %.1f,\n", cm.codec_cloud_compress_mbps);
    std::printf("    \"codec_cloud_decompress_mbps\": %.1f,\n",
                cm.codec_cloud_decompress_mbps);
    std::printf("    \"codec_text_compress_mbps\": %.1f,\n", cm.codec_text_compress_mbps);
    std::printf("    \"codec_text_decompress_mbps\": %.1f,\n",
                cm.codec_text_decompress_mbps);
    std::printf("    \"codec_text_ratio\": %.1f\n", cm.codec_text_ratio);
    std::printf("  },\n");

    set_global_thread_count(thread_counts.front());
    const metrics single = measure();
    std::printf("  \"speedup_vs_baseline_at_threads_%zu\": {\n", thread_counts.front());
    std::printf("    \"kd_nearest_k9\": %.2f,\n", baseline.kd_nearest_k9_us / single.kd_nearest_k9_us);
    std::printf("    \"kd_radius\": %.2f,\n", baseline.kd_radius_us / single.kd_radius_us);
    std::printf("    \"dbscan_8k\": %.2f,\n", baseline.dbscan_8k_ms / single.dbscan_8k_ms);
    std::printf("    \"height_variation_8k\": %.2f,\n",
                baseline.height_variation_8k_ms / single.height_variation_8k_ms);
    std::printf("    \"adaptive_eps_8k\": %.2f,\n",
                baseline.adaptive_eps_8k_ms / single.adaptive_eps_8k_ms);
    std::printf("    \"conv2d\": %.2f,\n", baseline.conv2d_us / single.conv2d_us);
    std::printf("    \"qconv\": %.2f,\n", baseline.qconv_us / single.qconv_us);
    std::printf("    \"qdense\": %.2f,\n", baseline.qdense_us / single.qdense_us);
    std::printf("    \"hap_projection_225\": %.2f,\n",
                baseline.hap_projection_us / single.hap_projection_us);
    std::printf("    \"qforward_golden\": %.2f\n",
                baseline.qforward_golden_us / single.qforward_golden_us);
    std::printf("  }\n");
    std::printf("}\n");
    return 0;
}
