// Table IV: crowd-counting accuracy of HAWC-CC with the proposed
// adaptive clustering vs fixed-eps DBSCAN (eps in {0.1..0.9}) and
// hierarchical clustering.
//
// Paper: adaptive MAE 0.38 / MSE 0.53; fixed eps 0.1 -> 1.56 MSE ...;
// hierarchical MAE 134.7 / MSE 28236 (catastrophic overcounting).

#include "bench_common.hpp"

using namespace hawc;
using namespace hawc::bench;

int main() {
    print_header("Table IV",
                 "HAWC-CC accuracy with adaptive vs fixed-eps vs hierarchical clustering");

    auto ds = standard_dataset();
    rng r{7};
    hawc_model model = train_standard_hawc(ds, r);

    const auto crowd_cfg = standard_crowd_config();
    const auto crowd = standard_crowd_dataset();

    text_table table{{"Method", "MAE", "MSE"}};

    auto evaluate_with = [&](const std::string& name, const clusterer_fn& clusterer) {
        crowd_counter counter{crowd_cfg.capture, model};
        // Isolate the clustering stage: the merged-cluster splitter (a
        // repo extension, DESIGN.md §6) compensates for clustering
        // mistakes and would mask exactly the differences this ablation
        // measures. The paper's pipeline counts one per cluster.
        multiplicity_config no_split;
        no_split.enabled = false;
        counter.set_multiplicity(no_split);
        rng eval_rng{31};
        std::cerr << "[bench] evaluating " << name << "...\n";
        const auto eval = evaluate(crowd, eval_rng, [&](const point_cloud& raw, rng& random) {
            return count_with(counter, clusterer, raw, random);
        });
        table.add_row({name, text_table::num(eval.metrics.mae),
                       text_table::num(eval.metrics.mse)});
        return eval.metrics;
    };

    for (double eps : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        evaluate_with("Fixed eps " + text_table::num(eps, 1),
                      make_fixed_eps_clusterer(eps, crowd_cfg.capture));
    }
    evaluate_with("Hierarchical (complete, cut 0.8)",
                  make_hierarchical_clusterer(0.8, crowd_cfg.capture));
    evaluate_with("Adaptive (ours)", adaptive_clusterer(crowd_cfg.capture));

    table.print(std::cout);
    print_paper_note(
        "adaptive 0.38/0.53 beats every fixed eps (best fixed: 0.5 at 0.40 MAE) "
        "and hierarchical fails outright (134.7/28236). Expected shape: adaptive "
        "lowest MAE/MSE; extreme eps values degrade sharply; hierarchical worst.");
    return 0;
}
