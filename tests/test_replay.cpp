// Tests for the record/replay + parity subsystem: the checksummed binary
// envelope, corpus file and model serialization round trips (bit-exact),
// corruption detection, deterministic recording/replaying, and the
// differential parity checker's ability to both pass identical pairs and
// flag genuinely divergent ones.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "classifiers/hawc_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "common/thread_pool.hpp"
#include "dataset/builders.hpp"
#include "features/pipeline.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "quant/calibrate.hpp"
#include "replay/binary_io.hpp"
#include "replay/container.hpp"
#include "replay/frame_format.hpp"
#include "replay/model_io.hpp"
#include "replay/parity_checker.hpp"
#include "replay/replay_driver.hpp"

namespace hawc::replay {
namespace {

// A small sensor keeps recording fast; clusters still form.
capture_config test_capture() {
    capture_config config;
    config.sensor.channels = 16;
    config.sensor.azimuth_steps = 512;
    config.min_cluster_points = 8;
    return config;
}

record_config test_record(std::uint64_t seed = 77, std::size_t frames = 4) {
    record_config config;
    config.name = "test";
    config.seed = seed;
    config.frames = frames;
    config.max_people = 4;
    config.capture = test_capture();
    return config;
}

/// Deterministic stand-in classifier: human iff the cluster has at least
/// `min_points` points. Thread-safe and rng-free, so parity across any
/// pair of identical thresholds is exact by construction.
class size_threshold_classifier final : public human_classifier {
public:
    explicit size_threshold_classifier(std::size_t min_points) : min_points_{min_points} {}
    bool is_human(const point_cloud& cluster, rng&) const override {
        return cluster.size() >= min_points_;
    }
    std::string name() const override { return "size-threshold"; }

private:
    std::size_t min_points_;
};

// ---- binary envelope -----------------------------------------------------

TEST(binary_envelope, round_trips) {
    byte_writer payload;
    payload.u32(0xdeadbeef);
    payload.str("hello");
    payload.f64(1.5);
    std::ostringstream out;
    write_envelope(out, 0x41424344, 3, payload);

    std::istringstream in{out.str()};
    const envelope env = read_envelope(in, 0x41424344, 3, "test");
    EXPECT_EQ(env.version, 3);
    byte_reader reader{env.payload};
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.str(), "hello");
    EXPECT_EQ(reader.f64(), 1.5);
    reader.expect_exhausted("test");
}

TEST(binary_envelope, rejects_bad_magic) {
    byte_writer payload;
    payload.u32(7);
    std::ostringstream out;
    write_envelope(out, 0x11111111, 1, payload);
    std::istringstream in{out.str()};
    EXPECT_THROW(read_envelope(in, 0x22222222, 1, "test"), io_error);
}

TEST(binary_envelope, rejects_future_version) {
    byte_writer payload;
    payload.u32(7);
    std::ostringstream out;
    write_envelope(out, 0x11111111, 5, payload);
    std::istringstream in{out.str()};
    EXPECT_THROW(read_envelope(in, 0x11111111, 4, "test"), io_error);
}

TEST(binary_envelope, rejects_corrupted_payload) {
    byte_writer payload;
    payload.str("precious data");
    std::ostringstream out;
    write_envelope(out, 0x11111111, 1, payload);
    std::string bytes = out.str();
    bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit
    std::istringstream in{bytes};
    EXPECT_THROW(read_envelope(in, 0x11111111, 1, "test"), io_error);
}

TEST(binary_envelope, rejects_truncation) {
    byte_writer payload;
    for (int i = 0; i < 64; ++i) payload.u32(i);
    std::ostringstream out;
    write_envelope(out, 0x11111111, 1, payload);
    const std::string bytes = out.str();
    for (const std::size_t keep : {std::size_t{3}, std::size_t{10}, bytes.size() - 5}) {
        std::istringstream in{bytes.substr(0, keep)};
        EXPECT_THROW(read_envelope(in, 0x11111111, 1, "test"), io_error) << keep;
    }
}

TEST(byte_reader, bounds_checked) {
    byte_writer payload;
    payload.u16(9);
    byte_reader reader{payload.bytes()};
    EXPECT_EQ(reader.u16(), 9);
    EXPECT_THROW(reader.u32(), io_error);
}

// Regression: read_envelope used to read the flags field and drop it on
// the floor, so an artifact carrying a future feature bit was misparsed
// as its flagless layout instead of failing the load. Unknown bits must
// be a clean io_error.
TEST(binary_envelope, rejects_unknown_flag_bits) {
    byte_writer payload;
    payload.str("future format");
    std::ostringstream out;
    write_envelope(out, 0x11111111, 1, payload);
    std::string bytes = out.str();
    // Envelope layout: u32 magic | u16 version | u16 flags | ... — patch
    // an undefined flag bit directly into the header.
    for (const std::uint16_t flags : {std::uint16_t{0x0002}, std::uint16_t{0x8000},
                                      std::uint16_t{0xfffe}}) {
        std::string bad = bytes;
        std::memcpy(bad.data() + 6, &flags, sizeof(flags));
        std::istringstream in{bad};
        EXPECT_THROW(read_envelope(in, 0x11111111, 1, "test"), io_error) << flags;
    }
}

TEST(binary_envelope, compressed_payload_round_trips_and_shrinks) {
    byte_writer payload;
    for (int i = 0; i < 200; ++i) payload.str("the same string every time");
    std::ostringstream plain_out;
    write_envelope(plain_out, 0x11111111, 1, payload);
    std::ostringstream packed_out;
    write_envelope_compressed(packed_out, 0x11111111, 1, payload);
    EXPECT_LT(packed_out.str().size(), plain_out.str().size() / 2);

    std::istringstream in{packed_out.str()};
    const envelope env = read_envelope(in, 0x11111111, 1, "test");
    EXPECT_EQ(env.payload, payload.bytes());  // transparent decompression
}

TEST(binary_envelope, compressed_empty_payload_round_trips) {
    const byte_writer payload;
    std::ostringstream out;
    write_envelope_compressed(out, 0x11111111, 1, payload);
    std::istringstream in{out.str()};
    EXPECT_TRUE(read_envelope(in, 0x11111111, 1, "test").payload.empty());
}

TEST(binary_envelope, corrupted_compressed_payload_fails_cleanly) {
    byte_writer payload;
    for (int i = 0; i < 50; ++i) payload.str("compressible compressible");
    std::ostringstream out;
    write_envelope_compressed(out, 0x11111111, 1, payload);
    const std::string bytes = out.str();
    // Any flip inside the stored (compressed) payload trips the checksum.
    for (std::size_t i = 24; i < bytes.size(); i += 7) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x10);
        std::istringstream in{bad};
        EXPECT_THROW(read_envelope(in, 0x11111111, 1, "test"), io_error) << i;
    }
}

TEST(binary_envelope, implausible_uncompressed_size_fails_before_allocating) {
    byte_writer payload;
    payload.str("small");
    std::ostringstream out;
    write_envelope_compressed(out, 0x11111111, 1, payload);
    std::string bytes = out.str();
    // Patch the leading u64 uncompressed size (payload offset 24) to an
    // absurd value and re-checksum so only the size check can fire — the
    // reader must reject it without attempting a huge allocation.
    const std::uint64_t absurd = ~std::uint64_t{0};
    std::memcpy(bytes.data() + 24, &absurd, sizeof(absurd));
    const std::uint64_t sum = fnv1a64(bytes.data() + 24, bytes.size() - 24);
    std::memcpy(bytes.data() + 16, &sum, sizeof(sum));
    std::istringstream in{bytes};
    EXPECT_THROW(read_envelope(in, 0x11111111, 1, "test"), io_error);
}

// Regression: byte_writer::str used to truncate the u32 length prefix of
// a >4 GiB string silently while raw() appended every byte — a
// self-inconsistent payload. Now it throws before writing anything. The
// oversized string_view is a length without a readable buffer behind it;
// str() must fail before touching the bytes.
TEST(byte_writer, rejects_strings_overflowing_length_prefix) {
    byte_writer payload;
    const char byte = 'x';
    const std::string_view huge{&byte,
                                std::size_t{1} + std::numeric_limits<std::uint32_t>::max()};
    EXPECT_THROW(payload.str(huge), io_error);
    EXPECT_TRUE(payload.bytes().empty()) << "failed str() must not half-write";
}

TEST(byte_reader, rejects_string_length_beyond_payload_without_allocating) {
    byte_writer payload;
    payload.u32(0xffffffffu);  // claims a 4 GiB string...
    payload.raw("abc", 3);     // ...backed by three bytes
    byte_reader reader{payload.bytes()};
    EXPECT_THROW(reader.str(), io_error);
}

// ---- frame corpus --------------------------------------------------------

TEST(frame_corpus, record_is_deterministic) {
    const frame_corpus a = record_corpus(test_record());
    const frame_corpus b = record_corpus(test_record());
    EXPECT_EQ(a, b);
    const frame_corpus c = record_corpus(test_record(/*seed=*/78));
    EXPECT_NE(a, c);
}

TEST(frame_corpus, round_trips_bit_exactly) {
    const frame_corpus corpus = record_corpus(test_record());
    ASSERT_EQ(corpus.size(), 4u);
    EXPECT_GT(corpus.total_points(), 0u);

    const auto path = std::filesystem::temp_directory_path() / "hawc_round_trip.frames";
    save_corpus_file(path, corpus);
    const frame_corpus loaded = load_corpus_file(path);
    std::filesystem::remove(path);
    EXPECT_EQ(loaded, corpus);  // bit-exact, including every coordinate
}

TEST(frame_corpus, corrupted_file_fails_cleanly) {
    const frame_corpus corpus = record_corpus(test_record());
    const auto path = std::filesystem::temp_directory_path() / "hawc_corrupted.frames";
    save_corpus_file(path, corpus);
    {
        std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
        const auto middle = static_cast<std::streamoff>(std::filesystem::file_size(path) / 2);
        file.seekg(middle);
        const char byte = static_cast<char>(file.get() ^ 0x01);
        file.seekp(middle);
        file.put(byte);
    }
    EXPECT_THROW(load_corpus_file(path), io_error);
    std::filesystem::remove(path);
}

TEST(frame_corpus, fault_injected_recording_differs) {
    record_config faulty = test_record();
    faulty.inject_faults = true;
    faulty.faults.beam_dropout_prob = 0.5;
    const frame_corpus clean = record_corpus(test_record());
    const frame_corpus degraded = record_corpus(faulty);
    EXPECT_NE(clean, degraded);
}

TEST(frame_seed_fn, order_independent_and_distinct) {
    const std::uint64_t s3 = frame_seed(42, 3);
    EXPECT_EQ(frame_seed(42, 3), s3);  // pure function of (base, index)
    EXPECT_NE(frame_seed(42, 3), frame_seed(42, 4));
    EXPECT_NE(frame_seed(42, 3), frame_seed(43, 3));
}

// ---- model serialization -------------------------------------------------

sequential make_net(rng& r) {
    sequential net;
    net.emplace<dense>(6, 10, r);
    net.emplace<relu>();
    net.emplace<dense>(10, 2, r);
    return net;
}

tensor make_input(rng& r) {
    tensor t{{1, 6}};
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(r.normal());
    return t;
}

TEST(model_io, weights_round_trip_bit_exactly) {
    rng r{5};
    sequential net = make_net(r);
    std::ostringstream out;
    save_weights(out, net);

    rng r2{99};  // different init, overwritten by load
    sequential restored = make_net(r2);
    std::istringstream in{out.str()};
    load_weights(in, restored);

    rng probe{1};
    for (int i = 0; i < 5; ++i) {
        const tensor x = make_input(probe);
        EXPECT_EQ(restored.infer(x), net.infer(x));
    }
}

TEST(model_io, weights_reject_architecture_mismatch) {
    rng r{5};
    sequential net = make_net(r);
    std::ostringstream out;
    save_weights(out, net);

    sequential other;
    other.emplace<dense>(6, 4, r);
    std::istringstream in{out.str()};
    EXPECT_THROW(load_weights(in, other), io_error);
}

TEST(model_io, trained_hawc_weights_round_trip) {
    // A trained HAWC network carries batch-norm running statistics as
    // layer buffers, not parameters; the weights file must restore them
    // too, or a reloaded model classifies differently.
    single_person_dataset_config ds_cfg;
    ds_cfg.human_samples = 30;
    ds_cfg.object_samples = 30;
    ds_cfg.capture = test_capture();
    const single_person_dataset ds = build_single_person_dataset(ds_cfg);
    hawc_config cfg;
    cfg.features.upsample.target_points = 64;
    cfg.features.projection.target_points = 64;
    cfg.training.epochs = 6;

    rng r{4};
    hawc_model model{cfg, ds.pool, r};
    model.train(ds.train, nullptr, r);
    std::ostringstream out;
    save_weights(out, model.network());

    rng r2{5};  // different init, overwritten by load
    hawc_model loaded{cfg, ds.pool, r2};
    std::istringstream in{out.str()};
    load_weights(in, loaded.network());

    ASSERT_GT(ds.test.size(), 0u);
    for (std::size_t i = 0; i < 10 && i < ds.test.size(); ++i) {
        rng features{100 + i};
        const tensor x = model.extractor().extract(ds.test.clusters[i], features);
        EXPECT_EQ(loaded.network().infer(x), model.network().infer(x));
    }
}

TEST(model_io, quantized_round_trip_bit_exactly) {
    rng r{6};
    sequential net = make_net(r);
    std::vector<tensor> calibration;
    for (int i = 0; i < 8; ++i) calibration.push_back(make_input(r));
    const quantized_model q = quantize_model(net, calibration);

    std::ostringstream out;
    save_quantized(out, q);
    std::istringstream in{out.str()};
    const quantized_model loaded = load_quantized(in);

    ASSERT_EQ(loaded.op_count(), q.op_count());
    rng probe{2};
    for (int i = 0; i < 5; ++i) {
        const tensor x = make_input(probe);
        EXPECT_EQ(loaded.forward(x), q.forward(x));  // int8 math is exact
    }
}

TEST(model_io, quantized_rejects_inconsistent_op) {
    rng r{6};
    sequential net = make_net(r);
    std::vector<tensor> calibration{make_input(r)};
    const quantized_model q = quantize_model(net, calibration);
    std::ostringstream out;
    save_quantized(out, q);
    std::string bytes = out.str();
    // Corrupt a byte: either the checksum or (if it survived) an op field
    // consistency check must reject the load — never UB.
    bytes[40] ^= 0x08;
    std::istringstream in{bytes};
    EXPECT_THROW(load_quantized(in), io_error);
}

TEST(model_io, object_pool_round_trips_bit_exactly) {
    rng r{7};
    point_cloud points;
    for (int i = 0; i < 50; ++i) {
        points.push_back({r.normal(), r.normal(), r.normal()});
    }
    object_pool pool;
    pool.add_cloud(points);

    std::ostringstream out;
    save_object_pool(out, pool);
    std::istringstream in{out.str()};
    const object_pool loaded = load_object_pool(in);
    ASSERT_EQ(loaded.points().size(), pool.points().size());
    for (std::size_t i = 0; i < pool.points().size(); ++i) {
        EXPECT_EQ(loaded.points()[i], pool.points()[i]);
    }
}

// ---- replay + parity -----------------------------------------------------

TEST(replay, deterministic_across_runs) {
    const frame_corpus corpus = record_corpus(test_record());
    const size_threshold_classifier classifier{10};
    const supervisor_config config = without_deadlines({.capture = test_capture()});

    frame_supervisor a{config, classifier};
    frame_supervisor b{config, classifier};
    const replay_result ra = replay_corpus(a, corpus);
    const replay_result rb = replay_corpus(b, corpus);
    ASSERT_EQ(ra.reports.size(), corpus.size());
    EXPECT_EQ(ra.total_count, rb.total_count);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(ra.reports[i].count, rb.reports[i].count);
        EXPECT_EQ(ra.reports[i].chosen_eps, rb.reports[i].chosen_eps);
    }
    EXPECT_EQ(ra.frames_ok + ra.frames_degraded + ra.frames_dropped, corpus.size());
}

TEST(parity, identical_pair_has_zero_divergences) {
    const frame_corpus corpus = record_corpus(test_record());
    const size_threshold_classifier a{10};
    const size_threshold_classifier b{10};
    supervisor_config config;
    config.capture = test_capture();

    telemetry::metrics_registry metrics;
    const parity_report report =
        check_count_parity("same_vs_same", corpus, config, a, b, &metrics);
    EXPECT_TRUE(report.passed()) << report.summary();
    EXPECT_EQ(report.frames, corpus.size());
    EXPECT_EQ(metrics.find_counter("hawc_parity_divergences_total")->value(), 0u);
    EXPECT_EQ(metrics.find_counter("hawc_parity_frames_compared_total")->value(),
              corpus.size());
}

TEST(parity, detects_divergent_pair) {
    const frame_corpus corpus = record_corpus(test_record(/*seed=*/123, /*frames=*/6));
    // Thresholds straddling typical cluster sizes: the pair must disagree
    // on at least one frame's count.
    const size_threshold_classifier lenient{8};
    const size_threshold_classifier strict{200};
    supervisor_config config;
    config.capture = test_capture();

    telemetry::metrics_registry metrics;
    const parity_report report =
        check_count_parity("lenient_vs_strict", corpus, config, lenient, strict, &metrics);
    EXPECT_FALSE(report.passed());
    EXPECT_GT(metrics.find_counter("hawc_parity_divergences_total")->value(), 0u);
    EXPECT_GT(
        metrics.find_counter("hawc_parity_lenient_vs_strict_divergences_total")->value(),
        0u);
}

TEST(parity, thread_sweep_is_bit_identical) {
    const frame_corpus corpus = record_corpus(test_record());
    const size_threshold_classifier classifier{10};
    supervisor_config config;
    config.capture = test_capture();

    const std::size_t original = global_pool().thread_count();
    parity_config parity;
    parity.thread_counts = {1, 2, 5};
    const parity_report report = check_thread_parity(corpus, config, classifier, parity);
    set_global_thread_count(original);
    EXPECT_TRUE(report.passed()) << report.summary();
    EXPECT_EQ(report.comparisons, corpus.size() * 2);  // two candidate counts
    EXPECT_EQ(global_pool().thread_count(), original);
}

/// Throws on every cluster, as every int8 forward does under an
/// unavailable HAWC_KERNEL_ISA tier.
class throwing_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud&, rng&) const override {
        throw std::runtime_error("classifier exploded");
    }
    std::string name() const override { return "throwing"; }
};

TEST(parity, frames_dropped_by_exceptions_are_divergences) {
    // Both sides drop the same frames with the same failure, so every
    // digest field agrees; the checkers must still refuse to pass.
    const frame_corpus corpus = record_corpus(test_record());
    const throwing_classifier thrower;
    supervisor_config config;
    config.capture = test_capture();

    const parity_report counts =
        check_count_parity("thrower_vs_thrower", corpus, config, thrower, thrower);
    EXPECT_FALSE(counts.passed());
    ASSERT_FALSE(counts.divergences.empty());
    for (const divergence& d : counts.divergences) {
        EXPECT_EQ(d.stage, "status");
        EXPECT_NE(d.detail.find("both threw: classifier exploded"), std::string::npos)
            << d.detail;
    }

    const std::size_t original = global_pool().thread_count();
    parity_config parity;
    parity.thread_counts = {1, 2};
    const parity_report threads = check_thread_parity(corpus, config, thrower, parity);
    set_global_thread_count(original);
    EXPECT_FALSE(threads.passed());
    EXPECT_EQ(threads.divergences.size(), counts.divergences.size());
}

TEST(parity, ladder_divergence_respects_budget) {
    const frame_corpus corpus = record_corpus(test_record());
    const size_threshold_classifier classifier{10};

    parity_config loose;
    loose.ladder_max_count_delta = 1000;  // nothing can exceed this
    const parity_report report = check_ladder_divergence(
        corpus, test_capture(), classifier, /*fixed_eps=*/0.35, loose);
    EXPECT_TRUE(report.passed()) << report.summary();
    EXPECT_EQ(report.comparisons, corpus.size());
}

// The featurizer's own regression pin. Golden parity compares fp32 with
// int8 and 1 thread with N, and both sides of every pair share the
// featurizer, so a change to up-sampling, sigma or the HAP projection
// would pass it silently. This hashes the tensor bytes of every cluster
// of both golden corpora, featurized with the golden object pool, the
// golden 225-point grid and the per-frame rng forks the counting stage
// uses. A deliberate featurizer change must re-pin the digest on purpose.
TEST(replay, golden_featurization_digest_is_pinned) {
    const std::filesystem::path dir{HAWC_GOLDEN_DIR};
    cnn_feature_config features;
    features.upsample.target_points = 225;
    features.projection.target_points = 225;
    const cnn_feature_extractor extractor{features,
                                          load_object_pool_file(dir / "object.pool")};
    capture_config geometry;  // the golden corpora's sensor
    geometry.sensor.channels = 24;
    geometry.sensor.azimuth_steps = 720;
    geometry.min_cluster_points = 10;

    std::vector<std::uint64_t> tensor_hashes;
    for (const char* name : {"clean.frames", "degraded.frames"}) {
        const frame_corpus corpus = load_corpus_file(dir / name);
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            const capture cap = process_cloud(corpus.frames[i].cloud, geometry);
            rng frame_rng{frame_seed(corpus.base_seed, i)};
            for (const point_cloud& cluster : cap.clusters) {
                rng cluster_rng = frame_rng.fork();
                const tensor t = extractor.extract(cluster, cluster_rng);
                tensor_hashes.push_back(fnv1a64(t.data(), t.size() * sizeof(float)));
            }
        }
    }
    const std::uint64_t digest =
        fnv1a64(tensor_hashes.data(), tensor_hashes.size() * sizeof(std::uint64_t));
    EXPECT_EQ(tensor_hashes.size(), 43u);
    EXPECT_EQ(digest, 0x2e420e46f35846e0ULL) << std::hex << "digest 0x" << digest;
}

// Pins the deployed int8 model's logits, bit for bit, on every golden
// cluster. The int8 forward is exact integer math plus one pinned
// rounding contract per activation, so any execution-layer rewrite
// (kernel tiers, im2col layout, workspace reuse) must leave this digest
// alone; only a deliberate change to the quantization math may re-pin it.
TEST(replay, golden_int8_logit_digest_is_pinned) {
    const std::filesystem::path dir{HAWC_GOLDEN_DIR};
    cnn_feature_config features;
    features.upsample.target_points = 225;
    features.projection.target_points = 225;
    const cnn_feature_extractor extractor{features,
                                          load_object_pool_file(dir / "object.pool")};
    const quantized_model int8 = load_quantized_file(dir / "hawc_int8.qmodel");
    capture_config geometry;  // the golden corpora's sensor
    geometry.sensor.channels = 24;
    geometry.sensor.azimuth_steps = 720;
    geometry.min_cluster_points = 10;

    std::vector<std::uint64_t> logit_hashes;
    for (const char* name : {"clean.frames", "degraded.frames"}) {
        const frame_corpus corpus = load_corpus_file(dir / name);
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            const capture cap = process_cloud(corpus.frames[i].cloud, geometry);
            rng frame_rng{frame_seed(corpus.base_seed, i)};
            for (const point_cloud& cluster : cap.clusters) {
                rng cluster_rng = frame_rng.fork();
                const tensor logits = int8.forward(extractor.extract(cluster, cluster_rng));
                logit_hashes.push_back(
                    fnv1a64(logits.data(), logits.size() * sizeof(float)));
            }
        }
    }
    const std::uint64_t digest =
        fnv1a64(logit_hashes.data(), logit_hashes.size() * sizeof(std::uint64_t));
    EXPECT_EQ(logit_hashes.size(), 43u);
    EXPECT_EQ(digest, 0xdc2909cf3142a4e0ULL) << std::hex << "digest 0x" << digest;
}

// Pins what the production path answers on every golden frame: count,
// cluster count, status and the bits of the eps DBSCAN ran with, through
// a default frame_supervisor (the golden int8 model, dedupe on) with its
// wall-clock deadline off. Every raw-frame count in the repo goes
// through this path, so a refactor of it must leave this digest alone.
TEST(replay, golden_supervisor_digest_is_pinned) {
    const std::filesystem::path dir{HAWC_GOLDEN_DIR};
    cnn_feature_config features;
    features.upsample.target_points = 225;
    features.projection.target_points = 225;
    const cnn_feature_extractor extractor{features,
                                          load_object_pool_file(dir / "object.pool")};
    const quantized_classifier int8{load_quantized_file(dir / "hawc_int8.qmodel"),
                                    [&extractor](const point_cloud& c, rng& r) {
                                        return extractor.extract(c, r);
                                    },
                                    "HAWC-int8"};
    supervisor_config config;
    config.capture.sensor.channels = 24;  // the golden corpora's sensor
    config.capture.sensor.azimuth_steps = 720;
    config.capture.min_cluster_points = 10;

    std::vector<std::uint64_t> fields;
    for (const char* name : {"clean.frames", "degraded.frames"}) {
        frame_supervisor supervisor{without_deadlines(config), int8};
        const replay_result result = replay_corpus(supervisor, load_corpus_file(dir / name));
        for (const frame_report& report : result.reports) {
            std::uint64_t eps_bits = 0;
            std::memcpy(&eps_bits, &report.chosen_eps, sizeof eps_bits);
            fields.insert(fields.end(), {report.count, report.cluster_count,
                                         static_cast<std::uint64_t>(report.status), eps_bits});
        }
    }
    const std::uint64_t digest = fnv1a64(fields.data(), fields.size() * sizeof(std::uint64_t));
    EXPECT_EQ(fields.size(), 4u * 14u);
    EXPECT_EQ(digest, 0xd74c97059ea22af3ULL) << std::hex << "digest 0x" << digest;
}

// Pins the neighbour queries of the adaptive clustering stage bit for
// bit: the sorted k-NN curve, the chosen eps and the DBSCAN labels at
// that eps and at the supervisor's fixed-eps rung, for every golden frame
// (ingested, duplicates kept) plus one 30-person deployment-sensor frame,
// at one and three lanes. A change to the neighbour index must leave it
// alone.
TEST(replay, golden_neighbour_digest_is_pinned) {
    const std::filesystem::path dir{HAWC_GOLDEN_DIR};
    capture_config golden;
    golden.sensor.channels = 24;  // the golden corpora's sensor
    golden.sensor.azimuth_steps = 720;
    std::vector<point_cloud> clouds;
    for (const char* name : {"clean.frames", "degraded.frames"}) {
        for (const frame_record& frame : load_corpus_file(dir / name).frames) {
            clouds.push_back(ingest(frame.cloud, golden.roi, golden.ground));
        }
    }
    record_config crowd;  // deployment sensor defaults
    crowd.seed = 30;
    crowd.frames = 1;
    crowd.min_people = 30;
    crowd.max_people = 30;
    const capture_config deployment = crowd.capture;
    clouds.push_back(
        ingest(record_corpus(crowd).frames[0].cloud, deployment.roi, deployment.ground));

    const adaptive_eps_config cfg;
    const double fixed_eps = supervisor_config{}.fallback_eps;
    const auto digest_at = [&](std::size_t threads) {
        set_global_thread_count(threads);
        std::vector<std::uint8_t> bytes;
        const auto put = [&bytes](const auto& values) {
            const auto* raw = reinterpret_cast<const std::uint8_t*>(values.data());
            bytes.insert(bytes.end(), raw, raw + values.size() * sizeof(values[0]));
        };
        for (const point_cloud& cloud : clouds) {
            put(knn_distance_curve(cloud, cfg.k, cfg.metric));
            const double eps = adaptive_epsilon(cloud, cfg);
            put(std::vector<double>{eps});
            put(dbscan(cloud, {eps, cfg.min_points, cfg.metric}).labels);
            put(dbscan(cloud, {fixed_eps, cfg.min_points, cfg.metric}).labels);
            const adaptive_clustering_result both = adaptive_dbscan(cloud, cfg);
            put(std::vector<double>{both.chosen_eps});
            put(both.clusters.labels);
        }
        return fnv1a64(bytes.data(), bytes.size());
    };
    const std::size_t threads = global_thread_count();
    const std::uint64_t one_lane = digest_at(1);
    const std::uint64_t three_lanes = digest_at(3);
    set_global_thread_count(threads);
    EXPECT_EQ(clouds.size(), 15u);
    EXPECT_EQ(one_lane, three_lanes);
    EXPECT_EQ(one_lane, 0xd67d232e21cfee3aULL) << std::hex << "digest 0x" << one_lane;
}

// The golden corpora are single-stream corpus containers carrying the
// names and seeds parity_checker records them with.
TEST(replay, golden_corpora_are_corpus_containers) {
    const std::filesystem::path dir{HAWC_GOLDEN_DIR};
    const struct {
        const char* file;
        const char* name;
        std::uint64_t base_seed;
        std::uint64_t frames;
    } golden[] = {{"clean.frames", "clean", 2024, 8}, {"degraded.frames", "degraded", 6021, 6}};
    for (const auto& want : golden) {
        container_reader reader{dir / want.file};
        EXPECT_EQ(reader.kind(), container_kind::corpus) << want.file;
        ASSERT_EQ(reader.stream_count(), 1u) << want.file;
        EXPECT_EQ(reader.stream(0).name, want.name);
        EXPECT_EQ(reader.stream(0).base_seed, want.base_seed) << want.file;
        EXPECT_EQ(reader.frame_count(0), want.frames) << want.file;
    }
}

}  // namespace
}  // namespace hawc::replay
