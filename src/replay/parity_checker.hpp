#pragma once

// Differential parity checking over recorded corpora: run two
// implementations of the same pipeline stage on identical replayed
// inputs and report every divergence. The implementation pairs the
// harness ships:
//
//   fp32 vs int8      count parity through the full supervisor, plus
//                     per-cluster label (exact) and logit (tolerance)
//                     diffs between sequential::infer and
//                     quantized_model::forward on shared feature tensors
//   1 vs N threads    the engine's bit-identical-across-thread-counts
//                     contract, end to end through the supervisor
//   adaptive vs fixed eps   the degradation ladder's rung-1 clusterer,
//                     with a configurable per-frame count-delta budget
//
// Divergence counts flow into an optional telemetry registry
// (hawc_parity_* metrics); parity_report::passed() gates CI. Replays run
// with the supervisor's cooperative deadline disabled — wall-clock must
// never decide which code path a parity frame takes (see DESIGN.md
// "Replay & parity", determinism contract).

#include <string>
#include <vector>

#include "counting/crowd_counter.hpp"
#include "features/pipeline.hpp"
#include "nn/sequential.hpp"
#include "quant/q_model.hpp"
#include "replay/frame_format.hpp"
#include "runtime/supervisor.hpp"
#include "telemetry/metrics.hpp"

namespace hawc::replay {

struct parity_config {
    /// Ladder pair: frames where adaptive-eps and fixed-eps counts differ
    /// by more than this diverge (the rungs are different estimators, so
    /// exact parity is not the contract — bounded drift is).
    std::size_t ladder_max_count_delta = 2;

    /// Thread-count sweep for check_thread_parity; the first entry is the
    /// reference.
    std::vector<std::size_t> thread_counts = {1, 4};
};

/// One observed implementation difference.
struct divergence {
    std::size_t frame = 0;
    std::string stage;   // "count", "clusters", "status", "eps", "label", "logit", "ladder"
    std::string detail;
};

struct parity_report {
    std::string pair_name;
    std::size_t frames = 0;
    std::size_t comparisons = 0;   // frames or clusters, pair-dependent
    double max_logit_delta = 0.0;  // logit pairs only
    std::size_t near_tie_flips = 0;  // label flips excused by the margin band
    std::vector<divergence> divergences;

    bool passed() const { return divergences.empty(); }
    std::string summary() const;
};

/// Full-pipeline count parity: replay the corpus through two supervisors
/// that differ only in the classifier, and diff every frame's count,
/// cluster count, status, and chosen eps (bit-exact).
parity_report check_count_parity(const std::string& pair_name, const frame_corpus& corpus,
                                 const supervisor_config& config,
                                 const human_classifier& reference,
                                 const human_classifier& candidate,
                                 telemetry::metrics_registry* metrics = nullptr);

/// Replay the corpus through one supervisor at each configured thread
/// count; every frame must be bit-identical to the reference count's.
parity_report check_thread_parity(const frame_corpus& corpus, const supervisor_config& config,
                                  const human_classifier& classifier,
                                  const parity_config& parity = {},
                                  telemetry::metrics_registry* metrics = nullptr);

/// Per-cluster classifier parity: cluster each frame once, featurize each
/// cluster once, and diff fp32 logits against the int8 model's — labels
/// exact, logits within |int8 - fp32| <= 0.25 + 0.10 * |fp32|. That bound
/// covers per-tensor int8 requantization error on logits in the trained
/// models' typical +-10 range; see DESIGN.md "Replay & parity". A label
/// flip only counts as divergence when fp32 itself was decisive (its
/// winning logit leads the runner-up by more than 0.02): on a near-tie
/// the fp32 answer is a coin flip, so such flips are tallied as
/// near_tie_flips instead (and the logits still must agree).
parity_report check_logit_parity(const frame_corpus& corpus, const capture_config& config,
                                 const cnn_feature_extractor& extractor,
                                 const sequential& fp32, const quantized_model& int8,
                                 telemetry::metrics_registry* metrics = nullptr);

/// Degradation-ladder drift: adaptive-eps counting vs the fixed-eps
/// rung-1 clusterer, with a per-frame count-delta budget.
parity_report check_ladder_divergence(const frame_corpus& corpus, const capture_config& config,
                                      const human_classifier& classifier, double fixed_eps,
                                      const parity_config& parity = {},
                                      telemetry::metrics_registry* metrics = nullptr);

}  // namespace hawc::replay
