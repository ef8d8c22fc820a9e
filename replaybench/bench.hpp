#pragma once

// Shared pieces of the production-path replay benchmark: the workload
// table, the seeded corpus generator, the deployed golden models, and
// the statistics and digest helpers. See METRICS.md for what each
// workload and metric is for.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "classifiers/hawc_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "fleet/fleet_manager.hpp"
#include "replay/binary_io.hpp"
#include "runtime/supervisor.hpp"

namespace replaybench {

enum class workload_kind { pole, fleet };

/// How one fleet pole misbehaves beyond its sensor faults.
struct pole_faults {
    hawc::fleet::link_fault_config link{};
    hawc::fleet::watchdog_config watchdog{};
    bool silent_middle_third = false;  // sensor sends nothing for the middle third of the replay
};

struct workload_spec {
    std::string name;
    workload_kind kind = workload_kind::pole;
    hawc::capture_config capture{};
    std::size_t min_people = 0;
    std::size_t max_people = 6;
    std::size_t max_objects = 3;
    std::size_t poles = 1;              // streams in the container
    std::size_t frames_per_stratum = 1;  // frames per people count, per stream
    bool sensor_faults = false;
    bool single_thread = false;  // pool of 1 instead of min(4, nproc - 1)
    std::vector<pole_faults> pole_plan;  // per pole; a pole beyond it is clean

    /// Frames in each stream: one stratum per people count.
    std::size_t frames_per_stream() const {
        return (max_people - min_people + 1) * frames_per_stratum;
    }
};

/// The workload table; throws std::invalid_argument on an unknown name.
const workload_spec& find_workload(std::string_view name);

/// Pool lanes the workload runs with: 1, or min(4, nproc - 1) so one
/// vCPU stays free for the rest of the machine.
std::size_t pool_size(const workload_spec& spec);

/// Logical CPUs the process may run on.
std::size_t online_cpus();

/// The capture geometry the golden int8 model was trained for.
hawc::capture_config golden_capture();
hawc::supervisor_config supervisor_for(const workload_spec& spec);

/// Base seed of stream `stream` (pole) of a corpus generated from `seed`.
std::uint64_t stream_seed(std::uint64_t seed, std::size_t stream);

/// Record the workload's corpus for `seed` and pack it into an HWCC
/// container at `out`. Frames are rendered by replay::record_corpus, one
/// call per (stream, people count) stratum, on up to `threads` threads;
/// the bytes written depend only on (spec, seed).
void generate_corpus(const workload_spec& spec, std::uint64_t seed,
                     const std::filesystem::path& out, std::size_t threads);

/// The deployed artifacts: int8 model as primary, fp32 network as
/// fallback, and the featurizer's object pool. Not movable: the int8
/// classifier's featurizer refers to the fp32 model's extractor.
struct golden_models {
    hawc::object_pool pool;
    hawc::hawc_model fp32;
    hawc::quantized_classifier int8;

    explicit golden_models(const std::filesystem::path& dir);
    golden_models(const golden_models&) = delete;
    golden_models& operator=(const golden_models&) = delete;
};

// ---- statistics -----------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 99.9 / 99 / 95 / 90 / 50 that leaves at least
/// `min_beyond` samples beyond it, or 0 when even the median does not.
double highest_supported_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Order-sensitive digest of a stream of words (the replay envelope's
/// fnv1a64 over their bytes).
class digest {
public:
    void add(std::uint64_t word) { bytes_.u64(word); }
    void add_double(double value) { bytes_.f64(value); }
    std::uint64_t value() const {
        return hawc::replay::fnv1a64(bytes_.bytes().data(), bytes_.bytes().size());
    }
    std::string hex() const;

private:
    hawc::replay::byte_writer bytes_;
};

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// ---- fleet outcome accounting ---------------------------------------------

/// Where every frame offered to a fleet went. Each link message ends in
/// exactly one bucket, so offered == fresh + dropped + stale + lost +
/// shed + rejected, where offered counts submitted frames plus link
/// duplicates that got past the pole's dedupe ring (each is processed
/// like a new arrival).
struct fleet_outcomes {
    std::uint64_t submitted = 0;
    std::uint64_t duplicated = 0;  // extra copies made by the link
    std::uint64_t deduped = 0;     // copies the pole recognised and skipped
    std::uint64_t fresh = 0;       // processed, answered ok or degraded
    std::uint64_t dropped = 0;     // processed, answered zero
    std::uint64_t stale = 0;       // processed, answered with the last good count
    std::uint64_t lost = 0;        // dropped or corrupted on the link
    std::uint64_t shed = 0;        // evicted from a full inbox
    std::uint64_t rejected = 0;    // refused or discarded while quarantined
    std::uint64_t pending = 0;     // still in a link or inbox at the end

    std::uint64_t offered() const { return submitted + duplicated - deduped; }
    std::uint64_t accounted() const {
        return fresh + dropped + stale + lost + shed + rejected + pending;
    }
    bool conserved() const { return offered() == accounted(); }
    double failed_ratio() const;
};

/// Sum the fleet's per-pole counters into outcome buckets. `stale` is
/// not derivable from pole counters (supervisor health resets on
/// restart), so the caller accumulates it tick by tick.
fleet_outcomes collect_outcomes(const hawc::fleet::fleet_manager& fleet,
                                std::uint64_t submitted, std::uint64_t stale);

// ---- stage decomposition (traced run) --------------------------------------

/// Totals over the frames a stage_probe has seen. Stage times are sums
/// in ms; per-cluster feature and model times are sums in us.
struct stage_totals {
    std::uint64_t frames = 0;
    std::uint64_t clustered_frames = 0;  // frames that reached clustering
    double supervisor_ms = 0.0;          // frame_supervisor::process, same frames

    double ingest_ms = 0.0;
    double dedupe_ms = 0.0;
    double scale_build_ms = 0.0;
    double eps_ms = 0.0;
    double dbscan_ms = 0.0;
    double extract_ms = 0.0;
    double classify_ms = 0.0;

    std::uint64_t raw_points = 0;
    std::uint64_t kept_points = 0;       // after ingest
    std::uint64_t clustered_points = 0;  // after dedupe, into eps + DBSCAN
    std::uint64_t clusters = 0;          // extracted

    std::uint64_t eligible_clusters = 0;  // at least min_cluster_points
    std::uint64_t split_clusters = 0;     // estimate_multiplicity > 1
    std::uint64_t kmeans_calls = 0;
    double kmeans_ms = 0.0;
    double upsample_us = 0.0;
    double sigma_us = 0.0;
    double project_us = 0.0;
    double quant_forward_us = 0.0;
    double fp32_forward_us = 0.0;

    std::uint64_t mismatches = 0;  // frames whose eps or cluster count differ
    std::string first_mismatch;

    double stage_sum_ms() const {
        return ingest_ms + dedupe_ms + scale_build_ms + eps_ms + dbscan_ms + extract_ms +
               classify_ms;
    }
    /// The stage with the largest share of stage_sum_ms().
    std::string dominant_stage() const;
};

/// Runs each frame through frame_supervisor::process and then through
/// the same stages called one by one (ingest, dedupe, scale + KD build,
/// eps selection, DBSCAN, extraction, count_clusters), checks that the
/// decomposition chose the supervisor's eps and cluster count, and times
/// the per-cluster featurizer and both networks sequentially.
class stage_probe {
public:
    stage_probe(const workload_spec& spec, golden_models& models);
    stage_probe(const stage_probe&) = delete;
    stage_probe& operator=(const stage_probe&) = delete;

    void frame(const hawc::point_cloud& raw, std::uint64_t rng_seed);
    const stage_totals& totals() const { return totals_; }

private:
    void per_cluster(const hawc::point_cloud& cluster, hawc::rng& random);

    hawc::supervisor_config config_;
    golden_models* models_;
    hawc::resilient_classifier classifier_;
    hawc::crowd_counter counter_;
    hawc::frame_supervisor supervisor_;
    stage_totals totals_;
};

}  // namespace replaybench
