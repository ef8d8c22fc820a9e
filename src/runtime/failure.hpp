#pragma once

// Structured failure taxonomy for the streaming runtime: which pipeline
// stage misbehaved and how. Every degraded or dropped frame carries the
// ordered list of failure events the supervisor observed while walking
// the degradation ladder, so operators can tell a dirty sensor (bursts
// of non_finite_input) from an overloaded node (stage_deadline) without
// reproducing the frame. Exception types live in common/error.hpp
// (data_integrity_error); this header classifies them.

#include <string>
#include <vector>

#include "common/error.hpp"

namespace hawc {

/// The supervised stages of the per-capture pipeline, in order.
enum class pipeline_stage {
    capture,         // raw frame validation (sanitization, size checks)
    ingest,          // ROI crop + ground removal + dedupe
    clustering,      // adaptive-eps selection + DBSCAN
    classification,  // per-cluster human/object decisions
    frame,           // whole-frame concerns (unknown throws)
};

/// Why a stage degraded or failed.
enum class failure_kind {
    non_finite_input,      // NaN/Inf coordinates in the raw capture
    truncated_frame,       // far too few raw returns (dropout / partial frame)
    duplicate_points,      // stuck-beam duplicates distorting density
    implausible_geometry,  // returns below the ground plane (range noise burst)
    degenerate_elbow,   // adaptive eps pinned to a clamp bound
    stage_deadline,     // a stage exceeded its watchdog budget
    classifier_fault,   // primary classifier threw / failed validation
    stage_exception,    // any other exception escaping a stage
};

const char* to_string(pipeline_stage stage);
const char* to_string(failure_kind kind);

/// One recorded failure. A frame can accumulate several events while the
/// ladder degrades it; it is only dropped when no rung is left.
struct failure_event {
    pipeline_stage stage = pipeline_stage::frame;
    failure_kind kind = failure_kind::stage_exception;
    std::string detail;

    std::string describe() const;  // "clustering: degenerate_elbow (eps pinned...)"
};

}  // namespace hawc
