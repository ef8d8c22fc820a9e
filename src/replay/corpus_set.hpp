#pragma once

// Multi-pole corpus sets: the fleet-scale extension of frame_corpus. A
// corpus set bundles one recorded frame sequence per pole, each tagged
// with its pole id. On disk a set is a multi-stream "HWCC" container
// (replay/container.hpp: pack_corpus_set / unpack_corpus_set), so a whole
// campus chaos scenario checks in as one file. The per-pole
// corpora keep their own base seeds: the fleet replays pole p's frames
// with exactly the rng streams a solo frame_supervisor replay of that
// corpus would use, which is what makes healthy-pole bit-exactness
// testable (see fleet_manager.hpp::replay_corpus_set).

#include <string>
#include <vector>

#include "replay/frame_format.hpp"
#include "replay/replay_driver.hpp"

namespace hawc::replay {

/// One pole's recorded sequence inside a set.
struct pole_corpus {
    std::string pole_id;
    frame_corpus corpus;

    bool operator==(const pole_corpus&) const = default;
};

struct pole_corpus_set {
    std::string name;
    std::vector<pole_corpus> poles;

    std::size_t pole_count() const { return poles.size(); }
    bool empty() const { return poles.empty(); }

    bool operator==(const pole_corpus_set&) const = default;
};

/// Record one corpus per pole id. Each pole gets an independent seed
/// derived from `base.seed` via the frame_seed splitmix, and the corpus
/// name gains a "/p<i>" suffix — so two poles never share rng streams or
/// scene sequences, and the whole set is reproducible from the one base
/// config.
pole_corpus_set record_corpus_set(const record_config& base,
                                  const std::vector<std::string>& pole_ids);

}  // namespace hawc::replay
