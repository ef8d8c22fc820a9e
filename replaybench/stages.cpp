#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "clustering/adaptive_eps.hpp"
#include "clustering/dbscan.hpp"
#include "clustering/kmeans.hpp"
#include "common/timer.hpp"
#include "features/height_features.hpp"
#include "features/projection.hpp"
#include "features/upsampling.hpp"
#include "pointcloud/kd_tree.hpp"
#include "preprocess/ingest.hpp"

namespace replaybench {

namespace {

// frame_supervisor's exact-duplicate removal (a private helper there):
// sort on coordinates, then unique.
hawc::point_cloud dedupe(const hawc::point_cloud& cloud) {
    std::vector<hawc::vec3> points{cloud.begin(), cloud.end()};
    std::sort(points.begin(), points.end(), [](const hawc::vec3& a, const hawc::vec3& b) {
        if (a.x != b.x) return a.x < b.x;
        if (a.y != b.y) return a.y < b.y;
        return a.z < b.z;
    });
    points.erase(std::unique(points.begin(), points.end()), points.end());
    return hawc::point_cloud{std::move(points)};
}

double elapsed_us(const hawc::stopwatch& sw) { return sw.elapsed_ms() * 1000.0; }

}  // namespace

std::string stage_totals::dominant_stage() const {
    const std::pair<const char*, double> stages[] = {
        {"ingest", ingest_ms + dedupe_ms}, {"scale_build", scale_build_ms},
        {"eps_selection", eps_ms},         {"dbscan", dbscan_ms},
        {"extract", extract_ms},           {"classify", classify_ms},
    };
    const auto* top = std::max_element(std::begin(stages), std::end(stages),
                                       [](const auto& a, const auto& b) { return a.second < b.second; });
    std::ostringstream out;
    const double sum = stage_sum_ms();
    out << top->first << " (" << (sum > 0.0 ? 100.0 * top->second / sum : 0.0) << "% of stage time)";
    return out.str();
}

stage_probe::stage_probe(const workload_spec& spec, golden_models& models)
    : config_{supervisor_for(spec)},
      models_{&models},
      classifier_{models.int8, &models.fp32},
      counter_{config_.capture, classifier_},
      supervisor_{config_, models.int8, &models.fp32} {}

void stage_probe::frame(const hawc::point_cloud& raw, std::uint64_t rng_seed) {
    ++totals_.frames;
    totals_.raw_points += raw.size();

    hawc::rng supervisor_rng{rng_seed};
    hawc::stopwatch sw;
    const hawc::frame_report report = supervisor_.process(raw, supervisor_rng);
    totals_.supervisor_ms += sw.elapsed_ms();

    // The same stages, one public call at a time, in run_stages' order.
    std::size_t clusters_examined = 0;
    double chosen_eps = 0.0;
    bool reached_classify = false;
    std::vector<hawc::point_cloud> clusters;
    try {
        const hawc::capture_config& cap = config_.capture;
        sw.reset();
        hawc::ingest_stats stats;
        const double floor_z = cap.walkway.ground_z() - config_.below_ground_tolerance_m;
        hawc::point_cloud ingested = hawc::ingest(raw, cap.roi, cap.ground, floor_z, stats);
        totals_.ingest_ms += sw.elapsed_ms();
        totals_.kept_points += ingested.size();

        const bool truncated = stats.raw_points - stats.non_finite < config_.min_raw_points;
        if (!truncated) {
            if (config_.dedupe_points && !ingested.empty()) {
                sw.reset();
                ingested = dedupe(ingested);
                totals_.dedupe_ms += sw.elapsed_ms();
            }
            const std::size_t floor =
                std::max(cap.min_cluster_points, cap.clustering.min_points);
            if (ingested.size() >= floor) {
                ++totals_.clustered_frames;
                totals_.clustered_points += ingested.size();
                const hawc::adaptive_eps_config& ccfg = cap.clustering;

                sw.reset();
                const hawc::point_cloud scaled = ccfg.metric.scale(ingested);
                const hawc::kd_tree tree{scaled};
                totals_.scale_build_ms += sw.elapsed_ms();

                sw.reset();
                const double eps = hawc::adaptive_epsilon_scaled(scaled, tree, ccfg);
                totals_.eps_ms += sw.elapsed_ms();
                const bool pinned = !std::isfinite(eps) || eps <= ccfg.min_eps || eps >= ccfg.max_eps;
                chosen_eps = pinned ? config_.fallback_eps : eps;

                sw.reset();
                const hawc::cluster_result labels =
                    hawc::dbscan_scaled(scaled, tree, chosen_eps, ccfg.min_points);
                totals_.dbscan_ms += sw.elapsed_ms();

                sw.reset();
                clusters = labels.extract_clusters(ingested);
                totals_.extract_ms += sw.elapsed_ms();
                totals_.clusters += clusters.size();

                hawc::rng count_rng{rng_seed};
                sw.reset();
                const hawc::cluster_count_result counted =
                    counter_.count_clusters(clusters, count_rng);
                totals_.classify_ms += sw.elapsed_ms();
                clusters_examined = counted.examined;
                reached_classify = true;
            }
        }
    } catch (const std::exception&) {
        // The supervisor drops such a frame; it must agree below.
        reached_classify = false;
    }

    const bool supervisor_dropped = report.status == hawc::frame_status::dropped;
    const bool agree = supervisor_dropped
                           ? !reached_classify || report.cluster_count == clusters_examined
                           : report.chosen_eps == chosen_eps &&
                                 report.cluster_count == clusters_examined;
    if (!agree) {
        ++totals_.mismatches;
        if (totals_.first_mismatch.empty()) {
            std::ostringstream why;
            why.precision(17);
            why << "frame " << (totals_.frames - 1) << ": supervisor eps " << report.chosen_eps
                << " clusters " << report.cluster_count << " vs decomposed eps " << chosen_eps
                << " clusters " << clusters_examined;
            totals_.first_mismatch = why.str();
        }
    }

    // Sequential per-cluster pass: the featurizer's three steps and both
    // networks, timed one call at a time (production fans these out).
    hawc::rng cluster_rng{rng_seed ^ 0x9e3779b97f4a7c15ull};
    for (const auto& cluster : clusters) {
        if (cluster.size() < config_.capture.min_cluster_points) continue;
        per_cluster(cluster, cluster_rng);
    }
}

void stage_probe::per_cluster(const hawc::point_cloud& cluster, hawc::rng& random) {
    ++totals_.eligible_clusters;
    const std::size_t capacity = hawc::estimate_multiplicity(cluster, counter_.multiplicity());
    if (capacity > 1) {
        ++totals_.split_clusters;
        hawc::kmeans_config split;
        split.k = capacity;
        split.metric = config_.capture.clustering.metric;
        hawc::stopwatch sw;
        hawc::kmeans(cluster, split, random);
        totals_.kmeans_ms += sw.elapsed_ms();
        ++totals_.kmeans_calls;
    }

    const hawc::cnn_feature_config& features = models_->fp32.extractor().config();
    const hawc::vec3 anchor = cluster.centroid();
    hawc::stopwatch sw;
    const hawc::point_cloud padded =
        hawc::upsample_cluster(cluster, features.upsample, models_->pool, random);
    totals_.upsample_us += elapsed_us(sw);

    sw.reset();
    const std::size_t n_real = std::min(cluster.size(), padded.size());
    hawc::point_cloud real_points;
    real_points.reserve(n_real);
    for (std::size_t i = 0; i < n_real; ++i) real_points.push_back(padded[i]);
    std::vector<double> sigma =
        hawc::height_variation(real_points, cluster, features.projection.knn_k);
    sigma.resize(padded.size(), 0.0);
    totals_.sigma_us += elapsed_us(sw);

    sw.reset();
    const hawc::tensor input = hawc::project_cluster(padded, anchor, features.projection, sigma);
    totals_.project_us += elapsed_us(sw);

    sw.reset();
    models_->int8.model().forward(input);
    totals_.quant_forward_us += elapsed_us(sw);

    sw.reset();
    models_->fp32.network().infer(input);
    totals_.fp32_forward_us += elapsed_us(sw);
}

}  // namespace replaybench
