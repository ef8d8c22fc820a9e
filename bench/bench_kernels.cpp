// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// HAWC-CC pipeline: KD-tree queries (allocating and allocation-free),
// DBSCAN, projection, and conv2d forward in fp32 and int8. Kernels that
// fan out over the global pool take the thread count as their benchmark
// argument.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "clustering/adaptive_eps.hpp"
#include "common/thread_pool.hpp"
#include "features/height_features.hpp"
#include "features/pipeline.hpp"
#include "nn/conv2d.hpp"
#include "preprocess/ingest.hpp"
#include "quant/calibrate.hpp"

namespace {

using namespace hawc;

point_cloud benchmark_cloud(std::size_t n) {
    rng r{42};
    point_cloud cloud;
    cloud.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.push_back({r.uniform(12.0, 35.0), r.uniform(-2.5, 2.5), r.uniform(-2.6, -1.0)});
    }
    return cloud;
}

void bm_kd_tree_build(benchmark::State& state) {
    const point_cloud cloud = benchmark_cloud(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        kd_tree tree{cloud};
        benchmark::DoNotOptimize(tree.size());
    }
}
BENCHMARK(bm_kd_tree_build)->Arg(500)->Arg(2000)->Arg(8000);

void bm_kd_tree_knn(benchmark::State& state) {
    const point_cloud cloud = benchmark_cloud(4000);
    const kd_tree tree{cloud};
    rng r{7};
    for (auto _ : state) {
        const auto nb = tree.nearest(cloud[r.uniform_index(cloud.size())], 8);
        benchmark::DoNotOptimize(nb.size());
    }
}
BENCHMARK(bm_kd_tree_knn);

void bm_kd_tree_knn_into(benchmark::State& state) {
    // Allocation-free variant: the reused buffer plateaus immediately
    // (k <= 16 additionally runs on the inline heap).
    const point_cloud cloud = benchmark_cloud(4000);
    const kd_tree tree{cloud};
    rng r{7};
    std::vector<neighbor> out;
    for (auto _ : state) {
        tree.nearest_into(cloud[r.uniform_index(cloud.size())], 8, out);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(bm_kd_tree_knn_into);

void bm_kd_tree_radius_into(benchmark::State& state) {
    const point_cloud cloud = benchmark_cloud(4000);
    const kd_tree tree{cloud};
    rng r{7};
    std::vector<std::size_t> found;
    for (auto _ : state) {
        tree.radius_search_into(cloud[r.uniform_index(cloud.size())], 0.3, found);
        benchmark::DoNotOptimize(found.size());
    }
}
BENCHMARK(bm_kd_tree_radius_into);

void bm_dbscan(benchmark::State& state) {
    // range(0): cloud size; range(1): pool lanes for the region-query phase.
    set_global_thread_count(static_cast<std::size_t>(state.range(1)));
    const point_cloud cloud = benchmark_cloud(static_cast<std::size_t>(state.range(0)));
    dbscan_config cfg;
    cfg.eps = 0.15;
    for (auto _ : state) {
        const auto result = dbscan(cloud, cfg);
        benchmark::DoNotOptimize(result.cluster_count);
    }
    set_global_thread_count(1);
}
BENCHMARK(bm_dbscan)->Args({500, 1})->Args({2000, 1})->Args({8000, 1})->Args({8000, 4});

void bm_adaptive_eps(benchmark::State& state) {
    set_global_thread_count(static_cast<std::size_t>(state.range(1)));
    const point_cloud cloud = benchmark_cloud(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(adaptive_epsilon(cloud));
    }
    set_global_thread_count(1);
}
BENCHMARK(bm_adaptive_eps)->Args({1000, 1})->Args({8000, 1})->Args({8000, 4});

void bm_height_variation(benchmark::State& state) {
    set_global_thread_count(static_cast<std::size_t>(state.range(1)));
    const point_cloud cloud = benchmark_cloud(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const auto sigma = height_variation(cloud, 8);
        benchmark::DoNotOptimize(sigma.back());
    }
    set_global_thread_count(1);
}
BENCHMARK(bm_height_variation)->Args({8000, 1})->Args({8000, 4});

void bm_projection_hap(benchmark::State& state) {
    // The production call, as cnn_feature_extractor::extract makes it: a
    // 60-point person padded with pool points to the 15 x 15 grid, sigma
    // measured on the cluster and zero on the padding.
    rng r{3};
    point_cloud cluster;
    for (int i = 0; i < 60; ++i) {
        cluster.push_back({20.0 + r.normal(0.0, 0.15), r.normal(0.0, 0.12),
                           -3.0 + r.uniform(0.1, 1.7)});
    }
    object_pool pool;
    pool.add_cloud(benchmark_cloud(500));
    upsample_config up;
    up.target_points = 225;
    const point_cloud padded = upsample_cluster(cluster, up, pool, r);
    std::vector<double> sigma = height_variation(cluster, 8);
    sigma.resize(padded.size(), 0.0);
    projection_config cfg;
    cfg.target_points = 225;
    const vec3 anchor = cluster.centroid();
    for (auto _ : state) {
        const tensor t = project_cluster(padded, anchor, cfg, sigma);
        benchmark::DoNotOptimize(t.size());
    }
}
BENCHMARK(bm_projection_hap);

void bm_conv2d_forward(benchmark::State& state) {
    rng r{4};
    conv2d conv{7, 16, 3, padding::same, r};
    tensor input{{1, 18, 18, 7}};
    for (std::size_t i = 0; i < input.size(); ++i) {
        input[i] = static_cast<float>(r.normal());
    }
    for (auto _ : state) {
        const tensor out = conv.forward(input, false);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(bm_conv2d_forward);

void bm_qconv_forward(benchmark::State& state) {
    // int8 path of the same conv: im2col over (x - zp) int16 + integer GEMM.
    rng r{5};
    sequential net;
    net.emplace<conv2d>(7, 16, 3, padding::same, r);
    tensor input{{1, 18, 18, 7}};
    for (std::size_t i = 0; i < input.size(); ++i) {
        input[i] = static_cast<float>(r.normal());
    }
    quantized_model qm = quantize_model(net, {input});
    for (auto _ : state) {
        const tensor out = qm.forward(input);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(bm_qconv_forward);

void bm_ingest(benchmark::State& state) {
    const point_cloud cloud = benchmark_cloud(20000);
    for (auto _ : state) {
        const point_cloud out = ingest(cloud);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(bm_ingest);

}  // namespace

BENCHMARK_MAIN();
