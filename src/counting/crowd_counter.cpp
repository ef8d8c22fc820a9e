#include "counting/crowd_counter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "clustering/dbscan.hpp"
#include "clustering/kmeans.hpp"
#include "clustering/hierarchical.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "preprocess/ingest.hpp"
#include "telemetry/metrics.hpp"

namespace hawc {

namespace {

void publish_cluster_metrics(const telemetry_handle& telem, const cluster_count_result& r) {
    if (telem.metrics == nullptr) return;
    telem.metrics
        ->make_counter("hawc_clusters_examined_total", "Clusters put through the classifier")
        .add(r.examined);
    telem.metrics
        ->make_counter("hawc_clusters_human_total", "Clusters (incl. multiplicity) counted human")
        .add(r.count);
}

}  // namespace

crowd_counter::crowd_counter(const capture_config& config, const human_classifier& classifier)
    : config_{config}, classifier_{&classifier} {}

std::size_t estimate_multiplicity(const point_cloud& cluster, const multiplicity_config& config) {
    if (!config.enabled || cluster.empty()) return 1;

    const aabb box = cluster.bounds();
    const vec3 extent = box.size();
    if (std::max(extent.x, extent.y) <= config.single_person_max_extent_m) return 1;

    // Occupied ground footprint: unique xy grid cells times cell area.
    std::vector<std::pair<std::int64_t, std::int64_t>> cells;
    cells.reserve(cluster.size());
    for (const auto& p : cluster) {
        cells.emplace_back(static_cast<std::int64_t>(std::floor(p.x / config.cell_size_m)),
                           static_cast<std::int64_t>(std::floor(p.y / config.cell_size_m)));
    }
    std::sort(cells.begin(), cells.end());
    const auto unique_cells =
        static_cast<double>(std::unique(cells.begin(), cells.end()) - cells.begin());
    const double area = unique_cells * config.cell_size_m * config.cell_size_m;
    const auto people =
        static_cast<std::size_t>(std::lround(area / config.person_footprint_m2));
    return std::clamp<std::size_t>(people, 1, config.max_per_cluster);
}

count_result crowd_counter::count(const point_cloud& raw, rng& random) const {
    count_result result;
    const point_cloud ingested = ingest(raw, config_.roi, config_.ground);
    if (ingested.empty()) return result;

    std::vector<point_cloud> clusters;
    if (clusterer_) {
        clusters = clusterer_(ingested);
    } else {
        clusters = adaptive_dbscan(ingested, config_.clustering)
                       .clusters.extract_clusters(ingested);
    }

    const cluster_count_result counted = count_clusters(clusters, random);
    result.count = counted.count;
    result.cluster_count = counted.examined;
    return result;
}

std::size_t crowd_counter::count_one(const point_cloud& cluster, rng& random) const {
    const std::size_t capacity = estimate_multiplicity(cluster, multiplicity_);
    if (capacity <= 1) {
        return classifier_->is_human(cluster, random) ? 1 : 0;
    }

    // Oversized cluster: split into person-sized parts and classify
    // each part on its own (a merged crowd looks nothing like the
    // single-person clusters the classifier was trained on). k-means
    // cuts people apart awkwardly, so fragment-level classification
    // under-counts; once the region is established to be
    // human-dominated (a majority of its parts classify human), the
    // footprint capacity is the better population estimate.
    kmeans_config split;
    split.k = capacity;
    split.metric = config_.clustering.metric;
    const auto parts = kmeans(cluster, split, random).clusters.extract_clusters(cluster);
    std::size_t examined = 0;
    std::size_t human_parts = 0;
    for (const auto& part : parts) {
        if (part.size() < config_.min_cluster_points) continue;
        ++examined;
        if (classifier_->is_human(part, random)) ++human_parts;
    }
    if (examined > 0 && 2 * human_parts >= examined) {
        return std::max(human_parts, capacity);
    }
    return human_parts;
}

cluster_count_result crowd_counter::count_clusters(std::span<const point_cloud> clusters,
                                                   rng& random, const deadline& time_budget,
                                                   const telemetry_handle& telem) const {
    cluster_count_result result;

    if (!classifier_->thread_safe()) {
        // Single-stream sequential loop: classifiers with mutable
        // per-call state (e.g. the chaos-injection wrapper) consume one
        // shared rng in cluster order, exactly as the pre-pool pipeline.
        for (const auto& cluster : clusters) {
            if (cluster.size() < config_.min_cluster_points) continue;
            if (time_budget.expired()) {
                result.truncated = true;
                break;
            }
            ++result.examined;
            telemetry::scoped_span span{telem, "classify_cluster"};
            result.count += count_one(cluster, random);
        }
        publish_cluster_metrics(telem, result);
        return result;
    }

    // Parallel fan-out. The forked streams are drawn sequentially before
    // any worker starts, so which rng a cluster sees never depends on
    // scheduling; with the deadline unarmed (or unexpired) the outcome is
    // byte-identical for every pool size. Deadline expiry skips whole
    // clusters, mirroring the sequential loop's skip-the-rest semantics,
    // and any skipped cluster flags the frame truncated.
    std::vector<const point_cloud*> eligible;
    eligible.reserve(clusters.size());
    for (const auto& cluster : clusters) {
        if (cluster.size() >= config_.min_cluster_points) eligible.push_back(&cluster);
    }
    std::vector<rng> streams;
    streams.reserve(eligible.size());
    for (std::size_t i = 0; i < eligible.size(); ++i) streams.push_back(random.fork());

    struct item_outcome {
        std::size_t count = 0;
        bool skipped = false;
    };
    std::vector<item_outcome> items(eligible.size());
    global_pool().parallel_for(0, eligible.size(), 1,
                               [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
                                   for (std::size_t i = lo; i < hi; ++i) {
                                       if (time_budget.expired()) {
                                           items[i].skipped = true;
                                           continue;
                                       }
                                       telemetry::scoped_span span{telem, "classify_cluster"};
                                       items[i].count = count_one(*eligible[i], streams[i]);
                                   }
                               });

    for (const auto& item : items) {
        if (item.skipped) {
            result.truncated = true;
            continue;
        }
        ++result.examined;
        result.count += item.count;
    }
    publish_cluster_metrics(telem, result);
    return result;
}

crowd_counter::evaluation crowd_counter::evaluate(std::span<const crowd_sample> samples,
                                                  rng& random) const {
    HAWC_REQUIRE(!samples.empty(), "cannot evaluate on an empty dataset");
    counting_accumulator acc;
    latency_recorder latency;
    for (const auto& sample : samples) {
        count_result r;
        latency.measure([&] { r = count(sample.raw, random); });
        acc.add(static_cast<double>(r.count), static_cast<double>(sample.ground_truth));
    }
    evaluation e;
    e.metrics = acc.metrics();
    e.mean_latency_ms = latency.mean_ms();
    e.stddev_latency_ms = latency.stddev_ms();
    return e;
}

clusterer_fn make_fixed_eps_clusterer(double eps, const capture_config& config) {
    dbscan_config db;
    db.eps = eps;
    db.min_points = config.clustering.min_points;
    db.metric = config.clustering.metric;
    return [db](const point_cloud& cloud) {
        return dbscan(cloud, db).extract_clusters(cloud);
    };
}

clusterer_fn make_hierarchical_clusterer(double cut_distance, const capture_config& config) {
    hierarchical_config hc;
    hc.cut_distance = cut_distance;
    hc.metric = config.clustering.metric;
    return [hc](const point_cloud& cloud) {
        if (cloud.size() > hc.max_points) {
            // O(n^2) guard: deterministically stride-subsample large clouds.
            point_cloud reduced;
            const double stride =
                static_cast<double>(cloud.size()) / static_cast<double>(hc.max_points);
            for (std::size_t i = 0; i < hc.max_points; ++i) {
                reduced.push_back(cloud[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
            }
            return hierarchical_cluster(reduced, hc).extract_clusters(reduced);
        }
        return hierarchical_cluster(cloud, hc).extract_clusters(cloud);
    };
}

}  // namespace hawc
