// Determinism tests for the parallel frame engine: parallel_for's
// partitioning contract, and byte-identical results across thread counts
// for every kernel that fans out over the global pool (DBSCAN, the k-NN
// elbow curve, height variation, CNN inference, the classification
// fan-out with stub and flaky classifiers, end-to-end counting and the
// fault-injected supervisor soak).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "classifiers/hawc_model.hpp"
#include "clustering/adaptive_eps.hpp"
#include "clustering/dbscan.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "features/height_features.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/supervisor.hpp"

namespace hawc {
namespace {

/// Thread counts every determinism sweep must agree across: 3 is the
/// lane count replaybench's crowd_dense uses on a 4-core host, and the
/// sweep always includes more lanes than a small host has cores, so
/// oversubscribed scheduling is exercised too.
std::vector<std::size_t> sweep_counts() {
    std::vector<std::size_t> counts{1, 2, 3, 4};
    const std::size_t hw = std::thread::hardware_concurrency();
    if (hw > 4) counts.push_back(hw);
    return counts;
}

/// Restores the global pool to the default sizing when a sweep ends.
struct pool_guard {
    ~pool_guard() {
        std::size_t hw = std::thread::hardware_concurrency();
        set_global_thread_count(hw == 0 ? 1 : hw);
    }
};

/// Cheap deterministic classifier for the soak (mirrors the runtime
/// tests): humans are tall-ish, compact clusters.
class extent_classifier_for_soak final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

/// Ground plane plus person-sized blobs, as in the runtime tests.
point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 600; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 120; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return cloud;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// --- parallel_for partitioning contract ---

TEST(thread_pool, covers_every_index_exactly_once) {
    pool_guard guard;
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        std::vector<int> hits(1000, 0);
        global_pool().parallel_for(0, hits.size(), 7,
                                   [&](std::size_t lo, std::size_t hi, std::size_t) {
                                       for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                                   });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads << " threads";
        }
    }
}

TEST(thread_pool, chunk_boundaries_depend_only_on_range_and_grain) {
    pool_guard guard;
    constexpr std::size_t begin = 10;
    constexpr std::size_t end = 1010;
    constexpr std::size_t grain = 64;
    constexpr std::size_t chunks = chunk_count(end - begin, grain);
    static_assert(chunks == 16);
    using bounds = std::pair<std::size_t, std::size_t>;
    const auto record = [&] {
        std::vector<bounds> seen(chunks, {0, 0});
        std::atomic<std::size_t> calls{0};
        global_pool().parallel_for(begin, end, grain,
                                   [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
                                       seen.at(chunk) = {lo, hi};
                                       calls.fetch_add(1, std::memory_order_relaxed);
                                   });
        EXPECT_EQ(calls.load(), chunks);
        return seen;
    };

    set_global_thread_count(2);
    const std::vector<bounds> reference = record();
    // Contiguous, numbered in range order, covering [10, 1010); every
    // chunk but the last is exactly one grain.
    std::size_t expect_lo = begin;
    for (std::size_t c = 0; c < chunks; ++c) {
        const auto [lo, hi] = reference[c];
        ASSERT_EQ(lo, expect_lo) << "chunk " << c;
        if (c + 1 < chunks) {
            ASSERT_EQ(hi - lo, grain) << "chunk " << c;
        }
        expect_lo = hi;
    }
    ASSERT_EQ(expect_lo, end);
    for (std::size_t threads : {3, 4, 8}) {
        set_global_thread_count(threads);
        for (int run = 0; run < 2; ++run) {
            ASSERT_EQ(record(), reference) << "at " << threads << " threads";
        }
    }
}

// Lanes claim chunks as they free up, so a lane stuck on one chunk holds
// back nothing else: index 0 waits (at most 2 s) until indices 1-7 have
// all run on the other lanes. Under a static split into one range per
// lane, the lane holding index 0 also owned index 1 and the wait timed
// out.
TEST(thread_pool, a_slow_chunk_does_not_hold_back_the_rest) {
    pool_guard guard;
    set_global_thread_count(4);
    std::atomic<std::size_t> others_done{0};
    std::atomic<bool> waited_for_all{false};
    global_pool().parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
            if (i != 0) {
                others_done.fetch_add(1);
                continue;
            }
            const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{2};
            while (others_done.load() < 7 && std::chrono::steady_clock::now() < give_up) {
                std::this_thread::sleep_for(std::chrono::microseconds{100});
            }
            waited_for_all.store(others_done.load() == 7);
        }
    });
    EXPECT_TRUE(waited_for_all.load()) << "index 0 timed out waiting for the other chunks";
    EXPECT_EQ(others_done.load(), 7u);
}

TEST(thread_pool, small_ranges_respect_grain) {
    pool_guard guard;
    set_global_thread_count(8);
    std::size_t chunks_seen = 0;
    global_pool().parallel_for(0, 10, 64, [&](std::size_t lo, std::size_t hi, std::size_t) {
        if (lo == 0 && hi == 10) ++chunks_seen;
    });
    EXPECT_EQ(chunks_seen, 1u);  // one chunk: the range is below one grain
}

// HAWC_THREADS goes through this parser; only the parser is exercised
// here, so no test ever starts a pool of the sizes it rejects.
TEST(thread_pool, env_thread_count_parses_strictly) {
    EXPECT_EQ(parse_thread_count("1"), 1u);
    EXPECT_EQ(parse_thread_count("4"), 4u);
    EXPECT_EQ(parse_thread_count("1024"), max_env_threads);
    for (const char* bad : {"", "abc", "4x", "x4", " 4", "4 ", "+4", "-1", "0", "4.0", "0x4",
                            "1025", "99999999999999999999999"}) {
        EXPECT_THROW(parse_thread_count(bad), invalid_argument_error) << '"' << bad << '"';
    }
    try {
        parse_thread_count("4x");
    } catch (const invalid_argument_error& e) {
        EXPECT_NE(std::string{e.what()}.find("HAWC_THREADS=\"4x\""), std::string::npos)
            << e.what();
    }
}

TEST(thread_pool, propagates_exceptions_from_workers) {
    pool_guard guard;
    set_global_thread_count(4);
    EXPECT_THROW(global_pool().parallel_for(
                     0, 1000, 1,
                     [&](std::size_t lo, std::size_t, std::size_t) {
                         if (lo > 0) throw std::runtime_error{"worker chunk failed"};
                     }),
                 std::runtime_error);
    // The pool survives the exception and keeps scheduling.
    std::vector<int> hits(100, 0);
    global_pool().parallel_for(0, hits.size(), 1,
                               [&](std::size_t lo, std::size_t hi, std::size_t) {
                                   for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                               });
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(thread_pool, nested_regions_run_inline) {
    pool_guard guard;
    set_global_thread_count(4);
    std::vector<int> hits(64, 0);
    global_pool().parallel_for(0, 4, 1, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t outer = lo; outer < hi; ++outer) {
            // Two nested regions in sequence: the second must stay inline
            // too (a naive flag reset after the first would re-enter the
            // pool and deadlock — count_one does exactly this pattern).
            for (int half = 0; half < 2; ++half) {
                global_pool().parallel_for(
                    0, 8, 1,
                    [&, outer, half](std::size_t ilo, std::size_t ihi, std::size_t chunk) {
                        EXPECT_EQ(chunk, 0u);  // inner region sees a single chunk
                        for (std::size_t i = ilo; i < ihi; ++i) {
                            ++hits[outer * 16 + half * 8 + i];
                        }
                    });
            }
        }
    });
    for (int h : hits) EXPECT_EQ(h, 1);
}

// --- Kernel determinism across thread counts ---

TEST(determinism, dbscan_labels_identical_for_every_thread_count) {
    pool_guard guard;
    rng scene{101};
    const point_cloud cloud = synth_frame(scene, 6);
    dbscan_config cfg;
    cfg.eps = 0.3;
    cfg.min_points = 5;

    set_global_thread_count(1);
    const cluster_result reference = dbscan(cloud, cfg);
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        const cluster_result got = dbscan(cloud, cfg);
        ASSERT_EQ(got.labels, reference.labels) << "at " << threads << " threads";
        ASSERT_EQ(got.cluster_count, reference.cluster_count);
    }
}

TEST(determinism, knn_curve_and_adaptive_eps_identical) {
    pool_guard guard;
    rng scene{102};
    const point_cloud cloud = synth_frame(scene, 5);
    const adaptive_eps_config cfg;

    set_global_thread_count(1);
    const std::vector<double> ref_curve = knn_distance_curve(cloud, cfg.k, cfg.metric);
    const double ref_eps = adaptive_epsilon(cloud, cfg);
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        const std::vector<double> curve = knn_distance_curve(cloud, cfg.k, cfg.metric);
        ASSERT_EQ(curve.size(), ref_curve.size());
        for (std::size_t i = 0; i < curve.size(); ++i) {
            ASSERT_EQ(bits(curve[i]), bits(ref_curve[i]))
                << "curve[" << i << "] at " << threads << " threads";
        }
        ASSERT_EQ(bits(adaptive_epsilon(cloud, cfg)), bits(ref_eps));
    }
}

TEST(determinism, height_variation_identical) {
    pool_guard guard;
    rng scene{103};
    const point_cloud cloud = synth_frame(scene, 4);

    set_global_thread_count(1);
    const std::vector<double> reference = height_variation(cloud, 8);
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        const std::vector<double> got = height_variation(cloud, 8);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(bits(got[i]), bits(reference[i]))
                << "sigma[" << i << "] at " << threads << " threads";
        }
    }
}

// Shared HAWC model (random initialization; determinism needs no
// training) over a small object pool.
hawc_model& shared_model() {
    static hawc_model model = [] {
        rng pool_rng{104};
        object_pool pool;
        pool.add_cloud(synth_frame(pool_rng, 3));
        rng init{105};
        return hawc_model{hawc_config{}, std::move(pool), init};
    }();
    return model;
}

TEST(determinism, hawc_logits_identical) {
    pool_guard guard;
    hawc_model& model = shared_model();

    rng scene{106};
    point_cloud person;
    for (int i = 0; i < 140; ++i) {
        person.push_back({20.0 + scene.normal(0.0, 0.12), scene.normal(0.0, 0.12),
                          -2.9 + scene.uniform() * 1.7});
    }

    set_global_thread_count(1);
    rng ref_rng{107};
    const tensor reference = model.network().infer(model.extractor().extract(person, ref_rng));
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        rng r{107};
        const tensor got = model.network().infer(model.extractor().extract(person, r));
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(bits(got.data()[i]), bits(reference.data()[i]))
                << "logit " << i << " at " << threads << " threads";
        }
    }
}

TEST(determinism, end_to_end_count_identical) {
    pool_guard guard;
    hawc_model& model = shared_model();
    capture_config capture;
    capture.min_cluster_points = 20;
    frame_supervisor supervisor{without_deadlines({.capture = capture}), model};

    rng scene{108};
    const point_cloud raw = synth_frame(scene, 5);

    set_global_thread_count(1);
    rng ref_rng{109};
    const frame_report reference = supervisor.process(raw, ref_rng);
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        rng r{109};
        const frame_report got = supervisor.process(raw, r);
        ASSERT_EQ(got.count, reference.count) << "at " << threads << " threads";
        ASSERT_EQ(got.cluster_count, reference.cluster_count);
    }
}

// --- Classification fan-out under the pool ---
//
// Every classifier runs through crowd_counter's forked-stream fan-out, so
// stub and chaos classifiers must give the same outcome on any lane count,
// including on merged clusters whose k-means split draws from the stream.

/// Stateless stub whose answer depends on the per-call stream as well as
/// the geometry, so a stream handed to the wrong cluster shows up.
class coin_extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng& random) const override {
        if (cluster.empty()) return false;
        return cluster.bounds().size().z > 0.7 && random.chance(0.8);
    }
    std::string name() const override { return "CoinExtent"; }
};

/// `people` person-sized blobs 0.5 m apart in a row: one merged cluster
/// wider than any single person.
void add_group(point_cloud& cloud, rng& r, double x, double y, std::size_t people) {
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = x + 0.5 * static_cast<double>(p);
        for (int i = 0; i < 120; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.1), y + r.normal(0.0, 0.1),
                             -2.9 + r.uniform() * 1.7});
        }
    }
}

TEST(determinism, stub_classifier_fanout_identical_with_kmeans_split) {
    pool_guard guard;
    const coin_extent_classifier stub;
    capture_config capture;
    capture.min_cluster_points = 20;
    const crowd_counter counter{capture, stub};

    rng scene{110};
    std::vector<point_cloud> clusters;
    for (std::size_t i = 0; i < 6; ++i) {
        point_cloud single;
        add_group(single, scene, 14.0 + 3.0 * static_cast<double>(i), 0.0, 1);
        clusters.push_back(std::move(single));
    }
    point_cloud merged;
    add_group(merged, scene, 20.0, 1.5, 5);
    ASSERT_GT(estimate_multiplicity(merged, counter.multiplicity()), 1u)
        << "the merged cluster must take the k-means split";
    clusters.push_back(std::move(merged));

    set_global_thread_count(1);
    rng ref_rng{111};
    const cluster_count_result reference = counter.count_clusters(clusters, ref_rng);
    EXPECT_EQ(reference.examined, clusters.size());
    EXPECT_GT(reference.count, 0u);
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        rng r{111};
        const cluster_count_result got = counter.count_clusters(clusters, r);
        EXPECT_EQ(got.count, reference.count) << "at " << threads << " threads";
        EXPECT_EQ(got.examined, reference.examined) << "at " << threads << " threads";
        EXPECT_EQ(got.truncated, reference.truncated) << "at " << threads << " threads";
    }
}

// Clusters that arrive smallest first: the largest-first claim order
// runs them in reverse, and the outcome must still be the one fixed by
// input order, at every lane count, for a stub classifier and for the
// flaky chaos wrapper behind a fallback (fault count included).
TEST(determinism, count_clusters_identical_when_clusters_arrive_smallest_first) {
    pool_guard guard;
    capture_config capture;
    capture.min_cluster_points = 20;

    rng scene{114};
    std::vector<point_cloud> clusters;
    for (std::size_t points = 30; points <= 150; points += 30) {
        point_cloud single;
        const double fx = 14.0 + 0.1 * static_cast<double>(points);
        for (std::size_t i = 0; i < points; ++i) {
            single.push_back({fx + scene.normal(0.0, 0.1), scene.normal(0.0, 0.1),
                              -2.9 + scene.uniform() * 1.7});
        }
        clusters.push_back(std::move(single));
    }
    for (std::size_t people = 2; people <= 5; ++people) {
        point_cloud merged;
        add_group(merged, scene, 20.0, 2.0 * static_cast<double>(people), people);
        clusters.push_back(std::move(merged));
    }
    for (std::size_t i = 1; i < clusters.size(); ++i) {
        ASSERT_LT(clusters[i - 1].size(), clusters[i].size()) << "sizes must ascend";
    }

    const coin_extent_classifier stub;
    const extent_classifier_for_soak fallback;
    ASSERT_GT(estimate_multiplicity(clusters.back(), crowd_counter{capture, stub}.multiplicity()),
              1u)
        << "the largest cluster must take the k-means split";

    struct outcome {
        cluster_count_result stub;
        cluster_count_result flaky;
        std::uint64_t faults = 0;
    };
    const auto run = [&] {
        outcome out;
        rng r{115};
        out.stub = crowd_counter{capture, stub}.count_clusters(clusters, r);
        const flaky_classifier primary{stub, 0.3};
        const resilient_classifier rescued{primary, &fallback};
        out.flaky = crowd_counter{capture, rescued}.count_clusters(clusters, r);
        out.faults = primary.faults_raised();
        return out;
    };

    set_global_thread_count(1);
    const outcome reference = run();
    EXPECT_EQ(reference.stub.examined, clusters.size());
    EXPECT_GT(reference.faults, 0u);
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        const outcome got = run();
        EXPECT_EQ(got.stub.count, reference.stub.count) << "at " << threads << " threads";
        EXPECT_EQ(got.stub.examined, reference.stub.examined) << "at " << threads << " threads";
        EXPECT_EQ(got.stub.truncated, reference.stub.truncated) << "at " << threads << " threads";
        EXPECT_EQ(got.flaky.count, reference.flaky.count) << "at " << threads << " threads";
        EXPECT_EQ(got.flaky.examined, reference.flaky.examined) << "at " << threads << " threads";
        EXPECT_EQ(got.flaky.truncated, reference.flaky.truncated)
            << "at " << threads << " threads";
        EXPECT_EQ(got.faults, reference.faults) << "at " << threads << " threads";
    }
}

TEST(determinism, flaky_classifier_faults_and_counts_identical) {
    pool_guard guard;
    constexpr std::size_t frames = 40;
    const extent_classifier_for_soak model;

    struct run_outcome {
        std::vector<std::size_t> counts;
        std::uint64_t faults = 0;
        std::uint64_t rescues = 0;
    };
    const auto run = [&] {
        const flaky_classifier primary{model, 0.2};
        frame_supervisor sup{without_deadlines({}), primary, &model};
        rng scene_rng{112};
        rng pipeline_rng{113};
        run_outcome out;
        for (std::size_t i = 0; i < frames; ++i) {
            point_cloud frame = synth_frame(scene_rng, 3);
            add_group(frame, scene_rng, 24.0, 2.0, 4);
            out.counts.push_back(sup.process(frame, pipeline_rng).count);
        }
        out.faults = primary.faults_raised();
        out.rescues = sup.health().float_model_fallbacks;
        return out;
    };

    set_global_thread_count(1);
    const run_outcome reference = run();
    EXPECT_GT(reference.faults, 0u);
    EXPECT_EQ(reference.rescues, reference.faults) << "the fallback rescues every fault";
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        const run_outcome got = run();
        EXPECT_EQ(got.faults, reference.faults) << "at " << threads << " threads";
        EXPECT_EQ(got.rescues, reference.rescues) << "at " << threads << " threads";
        ASSERT_EQ(got.counts, reference.counts) << "at " << threads << " threads";
    }
}

// --- Chaos soak under the pool ---
//
// A shortened rerun of the runtime chaos soak at several pool sizes: the
// per-frame outcomes must not depend on the thread count (the flaky
// classifier draws its faults from the per-cluster forked streams, and
// the parallel clustering kernels underneath must be invisible), and the
// degradation ladder must still fire.

TEST(determinism, chaos_soak_outcomes_identical_and_ladder_fires) {
    pool_guard guard;
    constexpr std::size_t frames = 1200;

    struct outcome {
        frame_status status;
        std::size_t count;
        bool fixed_eps;
        bool float_fallback;
    };

    const auto soak = [&] {
        const extent_classifier_for_soak model;
        const flaky_classifier primary{model, 0.02};
        supervisor_config cfg;
        cfg.capture.clustering.max_eps = 0.8;
        cfg.max_stale_frames = 4;
        // Determinism across runs: timing-based rungs must not flap, so
        // the cooperative deadlines are disabled for this sweep.
        frame_supervisor sup{without_deadlines(cfg), primary, &model};

        fault_injector injector{fault_injection_config{}};
        rng scene_rng{31};
        rng fault_rng{32};
        rng pipeline_rng{33};

        std::vector<outcome> outcomes;
        outcomes.reserve(frames);
        for (std::size_t i = 0; i < frames; ++i) {
            const point_cloud base = synth_frame(scene_rng, scene_rng.uniform_index(5));
            const auto kind = static_cast<fault_kind>((i / 2) % fault_kind_count);
            const point_cloud frame =
                (i % 2) == 1 ? injector.apply(kind, base, fault_rng) : base;
            const frame_report report = sup.process(frame, pipeline_rng);
            outcomes.push_back({report.status, report.count, report.used_fixed_eps,
                                report.used_float_fallback});
        }
        const health_counters& health = sup.health();
        EXPECT_TRUE(health.accounted());
        EXPECT_GT(health.fixed_eps_fallbacks, 0u);
        EXPECT_GT(health.float_model_fallbacks, 0u);
        EXPECT_GT(health.stale_counts_served, 0u);
        return outcomes;
    };

    set_global_thread_count(1);
    const std::vector<outcome> reference = soak();
    for (std::size_t threads : sweep_counts()) {
        set_global_thread_count(threads);
        const std::vector<outcome> got = soak();
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < frames; ++i) {
            ASSERT_EQ(got[i].status, reference[i].status)
                << "frame " << i << " at " << threads << " threads";
            ASSERT_EQ(got[i].count, reference[i].count) << "frame " << i;
            ASSERT_EQ(got[i].fixed_eps, reference[i].fixed_eps) << "frame " << i;
            ASSERT_EQ(got[i].float_fallback, reference[i].float_fallback) << "frame " << i;
        }
    }
}

}  // namespace
}  // namespace hawc
