// Perf snapshot for the parallel frame engine: times the hot kernels
// (the fp32 and int8 conv, the int8 dense, the 225-point HAP projection,
// the deployed golden int8 net's forward and the adaptive clustering of a
// dense deployment-sensor frame) at several pool sizes, the
// fleet occupancy read path, the observability event pipeline, and the
// corpus-container codec/pack/stream-decode path, and emits one JSON
// document (bench/snapshot.json via scripts/bench_snapshot.sh).
// scripts/perf_gate.sh checks the threads_1 block against the ceilings —
// and the corpus_container block against the floors — in
// bench/perf_floor.json.
//
// Every timed row uses one estimator, time_rows() below: interleaved
// min-of-passes. Each row prints its figure, the interquartile range of
// its passes in the same unit (`<name>_iqr`) and its pass count
// (`<name>_passes`).
//
// Usage: bench_snapshot [thread_count...]   (each >= 1; default: 1 4)

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "clustering/adaptive_eps.hpp"
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
#include "preprocess/ingest.hpp"
#include "quant/calibrate.hpp"
#include "replay/codec.hpp"
#include "replay/container.hpp"
#include "replay/model_io.hpp"
#include "replay/replay_driver.hpp"

using namespace hawc;

namespace {

// Passes per timed row. Rows of one block take their passes in turn, so a
// slow phase of a shared host lands on every row alike; each row's
// figure is its fastest pass, the reading least disturbed by the host.
constexpr std::size_t passes = 20;

/// One timed row: a pass runs `reps` back-to-back calls of `call`, and
/// `to_unit` turns the pass's milliseconds per call into the reported
/// unit. `before_pass`, when set, runs untimed ahead of every pass.
struct timed_row {
    std::string name;
    std::size_t reps = 1;
    std::function<void()> call;
    std::function<double(double)> to_unit;
    std::function<void()> before_pass = {};
};

struct row_result {
    std::string name;
    double value = 0.0;  // the fastest pass, in the row's unit
    double iqr = 0.0;    // interquartile range of the passes, same unit
};

/// Keeps a timed call's result alive so the optimizer cannot drop the call.
template <typename T>
void sink(T value) {
    volatile T kept = value;
    (void)kept;
}

/// Microseconds per operation, for calls that each run `ops` operations.
std::function<double(double)> us_per(double ops) {
    return [ops](double ms) { return 1000.0 * ms / ops; };
}

/// Megabytes per second, for calls that each move `mb` megabytes.
std::function<double(double)> mb_per_s(double mb) {
    return [mb](double ms) { return mb / (ms / 1000.0); };
}

std::vector<row_result> time_rows(const std::vector<timed_row>& rows) {
    for (const timed_row& row : rows) {  // warm-up: caches, workspaces, allocator
        if (row.before_pass) row.before_pass();
        row.call();
    }
    std::vector<std::vector<double>> ms(rows.size());
    for (std::size_t p = 0; p < passes; ++p) {
        for (std::size_t k = 0; k < rows.size(); ++k) {
            if (rows[k].before_pass) rows[k].before_pass();
            stopwatch sw;
            for (std::size_t i = 0; i < rows[k].reps; ++i) rows[k].call();
            ms[k].push_back(sw.elapsed_ms() / static_cast<double>(rows[k].reps));
        }
    }
    std::vector<row_result> results;
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const auto& unit = rows[k].to_unit;
        results.push_back({rows[k].name, unit(percentile(ms[k], 0.0)),
                           std::abs(unit(percentile(ms[k], 75.0)) -
                                    unit(percentile(ms[k], 25.0)))});
    }
    return results;
}

/// Prints one JSON object member per row, with its spread and pass count.
void print_block(const char* indent, const std::vector<row_result>& rows) {
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const row_result& r = rows[k];
        std::printf("%s\"%s\": %.4f, \"%s_iqr\": %.4f, \"%s_passes\": %zu%s\n", indent,
                    r.name.c_str(), r.value, r.name.c_str(), r.iqr, r.name.c_str(), passes,
                    k + 1 < rows.size() ? "," : "");
    }
}

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

/// One simulated 30-person frame from the deployment sensor, ingested:
/// the input of the clustering stage on a dense crowd.
const point_cloud& dense_frame() {
    static const point_cloud frame = [] {
        replay::record_config crowd;  // deployment sensor defaults
        crowd.seed = 30;
        crowd.frames = 1;
        crowd.min_people = 30;
        crowd.max_people = 30;
        return ingest(replay::record_corpus(crowd).frames[0].cloud, crowd.capture.roi,
                      crowd.capture.ground);
    }();
    return frame;
}

tensor random_input(std::vector<std::size_t> shape, rng& r) {
    tensor input{std::move(shape)};
    for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(r.normal());
    return input;
}

std::vector<row_result> measure_kernels() {
    rng r4{4};
    conv2d conv{7, 16, 3, padding::same, r4};
    const tensor conv_input = random_input({1, 18, 18, 7}, r4);

    rng r5{5};
    sequential qconv_net;
    qconv_net.emplace<conv2d>(7, 16, 3, padding::same, r5);
    const tensor qconv_input = random_input({1, 18, 18, 7}, r5);
    const quantized_model qconv = quantize_model(qconv_net, {qconv_input});

    rng r6{6};
    sequential qdense_net;
    qdense_net.emplace<dense>(512, 98, r6);
    qdense_net.emplace<relu>();
    qdense_net.emplace<dense>(98, 2, r6);
    const tensor qdense_input = random_input({8, 512}, r6);
    const quantized_model qdense = quantize_model(qdense_net, {qdense_input.slice_sample(0)});

    // HAP projection as cnn_feature_extractor::extract calls it: a
    // 60-point person padded with pool points to the 15 x 15 grid, sigma
    // measured on the cluster and zero on the padding.
    rng r8{8};
    point_cloud cluster;
    for (int i = 0; i < 60; ++i) {
        cluster.push_back({20.0 + r8.normal(0.0, 0.15), r8.normal(0.0, 0.12),
                           -2.9 + r8.uniform(0.0, 1.6)});
    }
    object_pool pool;
    pool.add_cloud(crowd_cloud(4, 64, 9));
    upsample_config up;
    up.target_points = 225;
    const point_cloud padded = upsample_cluster(cluster, up, pool, r8);
    std::vector<double> sigma = height_variation(cluster, 8);
    sigma.resize(padded.size(), 0.0);
    projection_config projection;
    projection.target_points = 225;
    const vec3 anchor = cluster.centroid();

    // The deployed net (data/golden/hawc_int8.qmodel) on one 15 x 15 x 7
    // HAP image: conv -> pool -> conv -> pool -> conv -> dense x 2, where
    // per-sample work outside the GEMMs shows.
    rng r10{10};
    const quantized_model golden = replay::load_quantized_file(
        std::filesystem::path{HAWC_GOLDEN_DIR} / "hawc_int8.qmodel");
    const tensor golden_input = random_input({1, 15, 15, 7}, r10);

    return time_rows({
        {"conv2d_18x18_7to16_us", 50, [&] { sink(conv.forward(conv_input, false)[0]); },
         us_per(1)},
        {"qconv_18x18_7to16_us", 50, [&] { sink(qconv.forward(qconv_input)[0]); }, us_per(1)},
        {"qdense_b8_512to98to2_us", 50, [&] { sink(qdense.forward(qdense_input)[0]); },
         us_per(1)},
        {"hap_projection_225_us", 200,
         [&] { sink(project_cluster(padded, anchor, projection, sigma)[0]); }, us_per(1)},
        {"qforward_golden_us", 100, [&] { sink(golden.forward(golden_input)[0]); },
         us_per(1)},
    });
}

// The clustering stage as the supervisor runs it on a dense frame: scale
// and grid the cloud once, select eps on the grid, DBSCAN at that eps,
// extract. Timed in passes of its own: a millisecond-scale row
// interleaved with the kernel rows would evict their caches.
std::vector<row_result> measure_clustering() {
    const point_cloud& frame = dense_frame();
    const adaptive_eps_config clustering;
    return time_rows({
        {"cluster_dense_frame_us", 5,
         [&] { sink(adaptive_dbscan(frame, clustering).clusters.extract_clusters(frame).size()); },
         us_per(1)},
    });
}

// Fleet occupancy read path: how fast the seqlock board absorbs
// publishes and serves snapshots, alone and under reader contention.
std::vector<row_result> measure_fleet(std::size_t poles) {
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

    constexpr std::size_t ops = 4096;
    // Three readers hammering the board while the writer republishes: the
    // service-facing contended read rate. The readers start only once the
    // writer is publishing, so even a short pass is contended throughout.
    constexpr std::size_t reads_per_thread = 500;
    const auto contended = [&] {
        std::atomic<bool> publishing{false};
        std::atomic<bool> done{false};
        std::thread writer{[&] {
            while (!done.load(std::memory_order_relaxed)) {
                ++snap.tick;
                board.publish(snap);
                publishing.store(true, std::memory_order_relaxed);
            }
        }};
        while (!publishing.load(std::memory_order_relaxed)) std::this_thread::yield();
        std::vector<std::thread> readers;
        for (int t = 0; t < 3; ++t) {
            readers.emplace_back([&board] {
                std::uint64_t acc = 0;
                for (std::size_t i = 0; i < reads_per_thread; ++i) acc += board.read().aggregate;
                sink(acc);
            });
        }
        for (auto& t : readers) t.join();
        done.store(true);
        writer.join();
    };
    return time_rows({
        {"publish_us", 1,
         [&] {
             for (std::size_t i = 0; i < ops; ++i) {
                 ++snap.tick;
                 board.publish(snap);
             }
         },
         us_per(ops)},
        {"read_us", 1,
         [&] {
             std::uint64_t acc = 0;
             for (std::size_t i = 0; i < ops; ++i) acc += board.read().aggregate;
             sink(acc);
         },
         us_per(ops)},
        {"contended_reads_per_us_3_readers", 1, contended,
         [](double ms) { return 3.0 * reads_per_thread / (ms * 1000.0); }},
    });
}

// Observability hot paths: what one event, one recorded frame, and one
// SLO sweep cost a pole that is otherwise busy counting people.
std::vector<row_result> measure_obs() {
    constexpr std::size_t ops = 4096;

    telemetry::event ev = telemetry::make_event(
        telemetry::event_kind::stage_failure, telemetry::event_severity::warning,
        "bench stage failure");
    ev.set_pole("pole-0");
    ev.add_field("streak", 3.0);

    obs::event_log accepting{{.capacity = 1024, .tokens_per_tick = 0.0, .burst = 0.0}};
    // One token ever: after the first accept, every publish takes the
    // token-bucket rejection path.
    obs::event_log suppressing{{.capacity = 64, .tokens_per_tick = 0.0, .burst = 1.0}};
    suppressing.publish(ev);

    // The recorder takes frames by move, as pole_runtime does; refilling
    // the inbox stays outside the timed pass.
    const point_cloud frame = crowd_cloud(100, 64, 42);
    obs::flight_recorder recorder{{.frame_capacity = 16}, "pole-0", 7};
    const supervisor_carry carry;
    frame_report report;
    report.count = 100;
    constexpr std::size_t frames = 256;
    std::vector<point_cloud> inbox;
    std::size_t next = 0;

    telemetry::metrics_registry reg;
    telemetry::counter& dropped = reg.make_counter("bench_dropped_total", "bench");
    telemetry::counter& sent = reg.make_counter("bench_frames_total", "bench");
    telemetry::gauge& stale = reg.make_gauge("bench_staleness", "bench");
    stale.set(2.0);
    obs::slo_engine engine{reg, reg,
                           obs::parse_slo_rules(
                               "alert drop_burn if "
                               "ratio(bench_dropped_total/bench_frames_total) > 0.05 "
                               "window 8/32 resolve 8\n"
                               "alert staleness if value(bench_staleness) > 6 for 3\n")};
    std::uint64_t tick = 0;

    return time_rows({
        {"event_publish_us", 1,
         [&] {
             for (std::size_t i = 0; i < ops; ++i) accepting.publish(ev);
         },
         us_per(ops)},
        {"event_suppressed_us", 1,
         [&] {
             for (std::size_t i = 0; i < ops; ++i) suppressing.publish(ev);
         },
         us_per(ops)},
        {"recorder_record_us", frames,
         [&] {
             recorder.record(next, 100, std::move(inbox[next]), carry, report);
             ++next;
         },
         us_per(1),
         [&] {
             inbox.assign(frames, frame);
             next = 0;
         }},
        {"slo_evaluate_2_rules_us", 1,
         [&] {
             for (std::size_t i = 0; i < ops; ++i) {
                 sent.add(10);
                 dropped.add(i % 50 == 0 ? 1 : 0);
                 engine.evaluate(tick++);
             }
         },
         us_per(ops)},
        {"events_to_jsonl_tail256_us", 1,
         [&] { sink(obs::to_json_lines(accepting.tail(256)).size()); },
         us_per(1)},
    });
}

// The corpus-container path (replay/container): packing a recorded
// corpus into chunked compressed "HWCC" form and streaming it back out,
// plus the raw codec on the two canonical inputs — float32 point clouds
// (the honest, nearly-incompressible case the fleet actually records)
// and redundant text (the JSONL/trace best case postmortem bundles see).
void print_container(const char* indent) {
    replay::frame_corpus corpus;
    corpus.name = "bench";
    corpus.base_seed = 42;
    for (std::size_t f = 0; f < 32; ++f) {
        replay::frame_record rec;
        rec.ground_truth = 100;
        rec.cloud = replay::round_to_recorded(crowd_cloud(100, 64, 42 + f));
        corpus.frames.push_back(std::move(rec));
    }
    const auto pack = [&] {
        std::ostringstream out;
        replay::pack_corpus(out, corpus, {.frames_per_chunk = 8});
        return out.str();
    };
    std::string packed = pack();
    std::uint64_t uncompressed = 0;
    std::uint64_t stored = 0;
    {
        std::istringstream in{packed};
        replay::container_reader reader{in};
        for (const replay::chunk_entry& chunk : reader.chunks()) {
            uncompressed += chunk.uncompressed_size;
            stored += chunk.stored_size;
        }
    }
    const double corpus_mb = static_cast<double>(uncompressed) / 1.0e6;

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
    std::string text;
    while (text.size() < (std::size_t{4} << 20)) {
        text += "{\"kind\":\"stage_failure\",\"pole\":\"pole-0\",\"streak\":3}\n";
    }
    const std::vector<char> text_bytes(text.begin(), text.end());

    std::vector<char> cloud_packed;
    std::vector<char> text_packed;
    replay::lz_compress_into(cloud_bytes.data(), cloud_bytes.size(), cloud_packed);
    replay::lz_compress_into(text_bytes.data(), text_bytes.size(), text_packed);
    std::vector<char> round(std::max(cloud_bytes.size(), text_bytes.size()));

    const auto codec_rows = [&](const char* input_name, const std::vector<char>& input,
                                std::vector<char>& out) {
        const double mb = static_cast<double>(input.size()) / 1.0e6;
        return std::vector<timed_row>{
            {std::string{"codec_"} + input_name + "_compress_mbps", 1,
             [&input, &out] { replay::lz_compress_into(input.data(), input.size(), out); },
             mb_per_s(mb)},
            {std::string{"codec_"} + input_name + "_decompress_mbps", 1,
             [&input, &out, &round] {
                 replay::lz_decompress_into(out.data(), out.size(), round.data(),
                                            input.size());
             },
             mb_per_s(mb)},
        };
    };
    std::vector<timed_row> rows{
        {"pack_mbps", 1, [&] { packed = pack(); }, mb_per_s(corpus_mb)},
        {"stream_decode_mbps", 1,
         [&] {
             std::istringstream in{packed};
             replay::container_reader walker{in};
             std::size_t acc = 0;
             for (std::uint64_t f = 0; f < walker.frame_count(0); ++f) {
                 acc += walker.frame(0, f).cloud.size();
             }
             sink(acc);
         },
         mb_per_s(corpus_mb)},
    };
    for (auto&& row : codec_rows("cloud", cloud_bytes, cloud_packed)) rows.push_back(row);
    for (auto&& row : codec_rows("text", text_bytes, text_packed)) rows.push_back(row);

    std::printf("%s\"uncompressed_mb\": %.2f,\n", indent, corpus_mb);
    std::printf("%s\"cloud_corpus_ratio\": %.3f,\n", indent,
                static_cast<double>(uncompressed) / static_cast<double>(stored));
    std::printf("%s\"codec_text_ratio\": %.1f,\n", indent,
                static_cast<double>(text_bytes.size()) /
                    static_cast<double>(text_packed.size()));
    print_block(indent, time_rows(rows));
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::size_t> thread_counts;
    for (int i = 1; i < argc; ++i) {
        char* end = nullptr;
        const long parsed = std::strtol(argv[i], &end, 10);
        if (end == argv[i] || *end != '\0' || parsed < 1) {
            std::fprintf(stderr,
                         "usage: bench_snapshot [thread_count...]  "
                         "(each an integer >= 1; default: 1 4)\n");
            return 2;
        }
        thread_counts.push_back(static_cast<std::size_t>(parsed));
    }
    if (thread_counts.empty()) thread_counts = {1, 4};

    std::printf("{\n");
    std::printf("  \"bench\": \"hot-kernel perf snapshot (incl. int8 conv/dense)\",\n");
    std::printf("  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
    std::printf("  \"kernel_isa\": \"%s\",\n", kernels::active_kernels().name);
    std::printf("  \"note\": \"thread-count sweeps above hardware_concurrency time-share "
                "cores and cannot show wall-clock parallel speedup\",\n");

    std::printf("  \"current\": {\n");
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        set_global_thread_count(thread_counts[t]);
        std::printf("    \"threads_%zu\": {\n", thread_counts[t]);
        std::vector<row_result> rows = measure_kernels();
        for (row_result& row : measure_clustering()) rows.push_back(std::move(row));
        print_block("      ", rows);
        std::printf("    }%s\n", t + 1 < thread_counts.size() ? "," : "");
    }
    std::printf("  },\n");

    std::printf("  \"fleet_occupancy_16_poles\": {\n");
    print_block("    ", measure_fleet(16));
    std::printf("  },\n");

    std::printf("  \"obs_event_pipeline\": {\n");
    print_block("    ", measure_obs());
    std::printf("  },\n");

    std::printf("  \"corpus_container\": {\n");
    print_container("    ");
    std::printf("  }\n");
    std::printf("}\n");
    return 0;
}
