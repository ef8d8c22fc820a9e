#pragma once

// Shared infrastructure for the paper-reproduction benches: standard
// dataset/model configurations, a fast-mode switch, and helpers to print
// measured-vs-paper rows.
//
// Every bench is deterministic given its seeds. Set HAWC_BENCH_FAST=1 to
// run a reduced configuration (smaller dataset, fewer epochs) when
// iterating; the shipped numbers in EXPERIMENTS.md use the default.

#include <functional>
#include <iostream>
#include <span>
#include <string>

#include "classifiers/autoencoder_model.hpp"
#include "classifiers/hawc_model.hpp"
#include "classifiers/ocsvm_model.hpp"
#include "classifiers/pointnet_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "counting/crowd_counter.hpp"

namespace hawc::bench {

/// True when HAWC_BENCH_FAST=1 is set in the environment.
bool fast_mode();

/// Scale a count down in fast mode.
std::size_t scaled(std::size_t full, std::size_t fast);

/// The standard single-person dataset every accuracy bench trains on.
single_person_dataset standard_dataset();

/// The standard crowd dataset (Tables IV and V).
std::vector<crowd_sample> standard_crowd_dataset();
crowd_dataset_config standard_crowd_config();

/// Standard model configurations bound to a dataset's N'_max.
hawc_config standard_hawc_config(const single_person_dataset& ds);
pointnet_config standard_pointnet_config(const single_person_dataset& ds);
autoencoder_config standard_autoencoder_config();

/// Train the standard HAWC (prints progress to stderr).
hawc_model train_standard_hawc(const single_person_dataset& ds, rng& random);

/// One raw capture in, people counted out.
using count_frame_fn = std::function<std::size_t(const point_cloud& raw, rng& random)>;

/// Counting error over a crowd dataset and the latency of each
/// count_frame call.
struct evaluation {
    counting_metrics metrics;
    double mean_latency_ms = 0.0;
    double stddev_latency_ms = 0.0;
};
evaluation evaluate(std::span<const crowd_sample> samples, rng& random,
                    const count_frame_fn& count_frame);

/// The paper's pipeline with a swappable clustering stage (Table IV):
/// ingest -> `clusterer` -> `counter`'s classification stage. An empty
/// ingest counts zero.
std::size_t count_with(const crowd_counter& counter, const clusterer_fn& clusterer,
                       const point_cloud& raw, rng& random);

/// The paper's adaptive DBSCAN as a clustering stage for count_with.
clusterer_fn adaptive_clusterer(const capture_config& config);

/// Print a section header so bench output is self-describing.
void print_header(const std::string& table_name, const std::string& description);

/// Print a "paper vs measured" note line.
void print_paper_note(const std::string& note);

}  // namespace hawc::bench
