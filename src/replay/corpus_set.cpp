#include "replay/corpus_set.hpp"

namespace hawc::replay {

pole_corpus_set record_corpus_set(const record_config& base,
                                  const std::vector<std::string>& pole_ids) {
    pole_corpus_set set;
    set.name = base.name;
    set.poles.reserve(pole_ids.size());
    for (std::size_t i = 0; i < pole_ids.size(); ++i) {
        record_config cfg = base;
        // A large odd offset keeps pole seed streams disjoint from the
        // per-frame streams frame_seed derives inside each corpus.
        cfg.seed = frame_seed(base.seed, 1000003 + i);
        cfg.name = base.name + "/p" + std::to_string(i);
        pole_corpus pole;
        pole.pole_id = pole_ids[i];
        pole.corpus = record_corpus(cfg);
        set.poles.push_back(std::move(pole));
    }
    return set;
}

}  // namespace hawc::replay
