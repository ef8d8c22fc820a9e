#include "replay/parity_checker.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "clustering/adaptive_eps.hpp"
#include "common/thread_pool.hpp"
#include "dataset/capture_pipeline.hpp"
#include "preprocess/ingest.hpp"
#include "replay/replay_driver.hpp"

namespace hawc::replay {

namespace {

// Logit parity (see check_logit_parity): |int8 - fp32| <= abs + rel * |fp32|,
// and label flips count only past fp32's own decisiveness margin.
constexpr double logit_abs_tolerance = 0.25;
constexpr double logit_rel_tolerance = 0.10;
constexpr double label_margin_tolerance = 0.02;

const char* status_name(frame_status s) {
    switch (s) {
        case frame_status::ok: return "ok";
        case frame_status::degraded: return "degraded";
        case frame_status::dropped: return "dropped";
    }
    return "?";
}

/// Doubles compared as bit patterns: parity means the two sides computed
/// the very same value, not merely nearby ones.
bool bits_equal(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The per-frame outcome fields a deterministic pair must reproduce
/// bit-exactly (timings excluded, obviously).
struct frame_digest {
    std::size_t count;
    std::size_t cluster_count;
    frame_status status;
    bool used_fixed_eps;
    double chosen_eps;
    /// What the frame threw when the supervisor dropped it through
    /// stage_exception; nullopt otherwise.
    std::optional<std::string> exception;
};

frame_digest digest(const frame_report& report) {
    frame_digest d{report.count, report.cluster_count, report.status, report.used_fixed_eps,
                   report.chosen_eps, std::nullopt};
    if (report.status == frame_status::dropped) {
        for (const failure_event& failure : report.failures) {
            if (failure.kind == failure_kind::stage_exception) {
                d.exception = failure.detail;
                break;
            }
        }
    }
    return d;
}

void diff_digests(parity_report& out, std::size_t frame, const frame_digest& a,
                  const frame_digest& b) {
    auto add = [&](const char* stage, const std::string& detail) {
        out.divergences.push_back({frame, stage, detail});
    };
    if (a.count != b.count) {
        add("count", "count " + std::to_string(a.count) + " vs " + std::to_string(b.count));
    }
    if (a.cluster_count != b.cluster_count) {
        add("clusters", "cluster_count " + std::to_string(a.cluster_count) + " vs " +
                            std::to_string(b.cluster_count));
    }
    // A frame dropped by an exception is a failure, not an outcome: two
    // sides that both throw on every frame would otherwise agree on every
    // digest field and pass vacuously.
    if (a.status != b.status || a.exception || b.exception) {
        std::string detail =
            std::string{"status "} + status_name(a.status) + " vs " + status_name(b.status);
        if (a.exception && a.exception == b.exception) {
            detail += "; both threw: " + *a.exception;
        } else {
            if (a.exception) detail += "; reference threw: " + *a.exception;
            if (b.exception) detail += "; candidate threw: " + *b.exception;
        }
        add("status", detail);
    }
    if (a.used_fixed_eps != b.used_fixed_eps || !bits_equal(a.chosen_eps, b.chosen_eps)) {
        std::ostringstream detail;
        detail << "eps " << a.chosen_eps << (a.used_fixed_eps ? " (fixed)" : "") << " vs "
               << b.chosen_eps << (b.used_fixed_eps ? " (fixed)" : "");
        add("eps", detail.str());
    }
}

std::string metric_slug(const std::string& pair_name) {
    std::string slug = pair_name;
    for (char& c : slug) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok) c = '_';
    }
    return slug;
}

/// Publish a finished report into the registry: aggregate counters for
/// scrapes plus a per-pair divergence counter so one regressing pair is
/// identifiable without log access.
void publish(telemetry::metrics_registry* metrics, const parity_report& report) {
    if (metrics == nullptr) return;
    metrics
        ->make_counter("hawc_parity_frames_compared_total",
                       "frames (or clusters) compared across all parity pairs")
        .add(report.comparisons);
    metrics
        ->make_counter("hawc_parity_divergences_total",
                       "implementation divergences across all parity pairs")
        .add(report.divergences.size());
    metrics
        ->make_counter("hawc_parity_" + metric_slug(report.pair_name) + "_divergences_total",
                       "divergences for pair " + report.pair_name)
        .add(report.divergences.size());
    if (report.max_logit_delta > 0.0) {
        metrics
            ->make_gauge("hawc_parity_" + metric_slug(report.pair_name) + "_max_logit_delta",
                         "largest |fp32 - int8| logit delta for pair " + report.pair_name)
            .set(report.max_logit_delta);
    }
}

std::vector<frame_digest> replay_digests(const frame_corpus& corpus,
                                         const supervisor_config& config,
                                         const human_classifier& classifier) {
    frame_supervisor supervisor{config, classifier};
    const replay_result run = replay_corpus(supervisor, corpus);
    std::vector<frame_digest> digests;
    digests.reserve(run.reports.size());
    for (const frame_report& report : run.reports) digests.push_back(digest(report));
    return digests;
}

}  // namespace

std::string parity_report::summary() const {
    std::ostringstream out;
    out << pair_name << ": " << comparisons << " comparisons over " << frames << " frames, "
        << divergences.size() << " divergence" << (divergences.size() == 1 ? "" : "s");
    if (max_logit_delta > 0.0) out << ", max logit delta " << max_logit_delta;
    if (near_tie_flips > 0) out << ", " << near_tie_flips << " near-tie label flips (excused)";
    if (!divergences.empty()) {
        constexpr std::size_t shown = 5;
        for (std::size_t i = 0; i < std::min(shown, divergences.size()); ++i) {
            out << "\n  frame " << divergences[i].frame << " [" << divergences[i].stage
                << "] " << divergences[i].detail;
        }
        if (divergences.size() > shown) {
            out << "\n  ... " << (divergences.size() - shown) << " more";
        }
    }
    return out.str();
}

parity_report check_count_parity(const std::string& pair_name, const frame_corpus& corpus,
                                 const supervisor_config& config,
                                 const human_classifier& reference,
                                 const human_classifier& candidate,
                                 telemetry::metrics_registry* metrics) {
    parity_report report;
    report.pair_name = pair_name;
    report.frames = corpus.size();
    report.comparisons = corpus.size();

    const supervisor_config timeless = without_deadlines(config);
    const std::vector<frame_digest> ref = replay_digests(corpus, timeless, reference);
    const std::vector<frame_digest> cand = replay_digests(corpus, timeless, candidate);
    for (std::size_t i = 0; i < corpus.size(); ++i) diff_digests(report, i, ref[i], cand[i]);
    publish(metrics, report);
    return report;
}

parity_report check_thread_parity(const frame_corpus& corpus, const supervisor_config& config,
                                  const human_classifier& classifier,
                                  const parity_config& parity,
                                  telemetry::metrics_registry* metrics) {
    parity_report report;
    report.pair_name = "threads";
    report.frames = corpus.size();

    const supervisor_config timeless = without_deadlines(config);
    const std::size_t previous = global_pool().thread_count();
    std::vector<frame_digest> reference;
    for (std::size_t ti = 0; ti < parity.thread_counts.size(); ++ti) {
        set_global_thread_count(parity.thread_counts[ti]);
        std::vector<frame_digest> digests = replay_digests(corpus, timeless, classifier);
        if (ti == 0) {
            report.pair_name = "threads_" + std::to_string(parity.thread_counts[0]) + "_ref";
            reference = std::move(digests);
            continue;
        }
        report.pair_name += "_vs_" + std::to_string(parity.thread_counts[ti]);
        report.comparisons += corpus.size();
        const std::size_t before = report.divergences.size();
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            diff_digests(report, i, reference[i], digests[i]);
        }
        for (std::size_t d = before; d < report.divergences.size(); ++d) {
            report.divergences[d].detail +=
                " (at " + std::to_string(parity.thread_counts[ti]) + " threads)";
        }
    }
    set_global_thread_count(previous);
    publish(metrics, report);
    return report;
}

parity_report check_logit_parity(const frame_corpus& corpus, const capture_config& config,
                                 const cnn_feature_extractor& extractor,
                                 const sequential& fp32, const quantized_model& int8,
                                 telemetry::metrics_registry* metrics) {
    parity_report report;
    report.pair_name = "fp32_vs_int8_logits";
    report.frames = corpus.size();

    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const capture cap = process_cloud(corpus.frames[i].cloud, config);
        // One rng stream per frame, forked per cluster exactly as the
        // counting stage does, so both models featurize the very same
        // tensor for each cluster.
        rng frame_rng{frame_seed(corpus.base_seed, i)};
        for (const point_cloud& cluster : cap.clusters) {
            rng cluster_rng = frame_rng.fork();
            const tensor features = extractor.extract(cluster, cluster_rng);
            const tensor fp_logits = fp32.infer(features);
            const tensor q_logits = int8.forward(features);
            ++report.comparisons;

            if (fp_logits.size() != q_logits.size()) {
                report.divergences.push_back(
                    {i, "logit",
                     "logit count " + std::to_string(fp_logits.size()) + " vs " +
                         std::to_string(q_logits.size())});
                continue;
            }
            std::size_t fp_arg = 0;
            std::size_t q_arg = 0;
            for (std::size_t k = 1; k < fp_logits.size(); ++k) {
                if (fp_logits[k] > fp_logits[fp_arg]) fp_arg = k;
                if (q_logits[k] > q_logits[q_arg]) q_arg = k;
            }
            if (fp_arg != q_arg) {
                // fp32's decisiveness: winning logit minus the runner-up.
                double runner_up = -std::numeric_limits<double>::infinity();
                for (std::size_t k = 0; k < fp_logits.size(); ++k) {
                    if (k != fp_arg) runner_up = std::max(runner_up, double{fp_logits[k]});
                }
                const double margin = double{fp_logits[fp_arg]} - runner_up;
                if (margin <= label_margin_tolerance) {
                    ++report.near_tie_flips;
                } else {
                    std::ostringstream detail;
                    detail << "label " << fp_arg << " vs " << q_arg << " (fp32 margin "
                           << margin << "; fp32 logits";
                    for (std::size_t k = 0; k < fp_logits.size(); ++k) {
                        detail << ' ' << fp_logits[k];
                    }
                    detail << "; int8 logits";
                    for (std::size_t k = 0; k < q_logits.size(); ++k) detail << ' ' << q_logits[k];
                    detail << ')';
                    report.divergences.push_back({i, "label", detail.str()});
                }
            }
            for (std::size_t k = 0; k < fp_logits.size(); ++k) {
                const double delta = std::abs(double{fp_logits[k]} - double{q_logits[k]});
                report.max_logit_delta = std::max(report.max_logit_delta, delta);
                const double budget = logit_abs_tolerance +
                                      logit_rel_tolerance * std::abs(double{fp_logits[k]});
                if (delta > budget) {
                    std::ostringstream detail;
                    detail << "logit[" << k << "] " << fp_logits[k] << " vs " << q_logits[k]
                           << " (delta " << delta << " > budget " << budget << ')';
                    report.divergences.push_back({i, "logit", detail.str()});
                }
            }
        }
    }
    publish(metrics, report);
    return report;
}

parity_report check_ladder_divergence(const frame_corpus& corpus, const capture_config& config,
                                      const human_classifier& classifier, double fixed_eps,
                                      const parity_config& parity,
                                      telemetry::metrics_registry* metrics) {
    parity_report report;
    report.pair_name = "adaptive_vs_fixed_eps";
    report.frames = corpus.size();
    report.comparisons = corpus.size();

    // Both sides share the ingested cloud and the classification stage;
    // only the clustering stage differs. An empty ingest counts zero on
    // both sides.
    const crowd_counter counter{config, classifier};
    const clusterer_fn fixed = make_fixed_eps_clusterer(fixed_eps, config);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const point_cloud ingested = ingest(corpus.frames[i].cloud, config.roi, config.ground);
        if (ingested.empty()) continue;
        rng adaptive_rng{frame_seed(corpus.base_seed, i)};
        rng fixed_rng{frame_seed(corpus.base_seed, i)};
        const std::vector<point_cloud> adaptive =
            adaptive_dbscan(ingested, config.clustering).clusters.extract_clusters(ingested);
        const std::size_t a = counter.count_clusters(adaptive, adaptive_rng).count;
        const std::size_t f = counter.count_clusters(fixed(ingested), fixed_rng).count;
        const std::size_t delta = a > f ? a - f : f - a;
        if (delta > parity.ladder_max_count_delta) {
            report.divergences.push_back(
                {i, "ladder",
                 "adaptive count " + std::to_string(a) + " vs fixed-eps " + std::to_string(f) +
                     " (delta " + std::to_string(delta) + " > budget " +
                     std::to_string(parity.ladder_max_count_delta) + ")"});
        }
    }
    publish(metrics, report);
    return report;
}

}  // namespace hawc::replay
