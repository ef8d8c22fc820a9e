// Figure 9: the height-aware projection (HAP) ablation — detection
// accuracy of HAWC and counting MAE/MSE of HAWC-CC with HAP vs
// bird-eye-view (BEV), range-view (RV), density-aware (DA), and
// three-view (TV) projections.
//
// Paper: HAP beats the alternatives by up to 12.44% accuracy and
// 7.3..75.6% MAE.

#include "bench_common.hpp"
#include "runtime/supervisor.hpp"

using namespace hawc;
using namespace hawc::bench;

int main() {
    print_header("Figure 9",
                 "Projection ablation: HAP vs BEV / RV / DA / TV inside HAWC and HAWC-CC");

    auto ds = standard_dataset();
    const auto crowd_cfg = standard_crowd_config();
    const auto crowd = standard_crowd_dataset();

    const projection_method methods[] = {
        projection_method::hap, projection_method::three_view, projection_method::bev,
        projection_method::range_view, projection_method::density_aware};

    text_table table{{"Projection", "Detection Acc (%)", "Counting MAE", "Counting MSE"}};

    for (const auto method : methods) {
        rng r{7};
        hawc_config cfg = standard_hawc_config(ds);
        cfg.features.projection.method = method;
        hawc_model model{cfg, ds.pool, r};
        std::cerr << "[bench] training HAWC with " << to_string(method) << "...\n";
        model.train(ds.train, nullptr, r);
        const double accuracy = model.evaluate(ds.test, r).accuracy;

        frame_supervisor supervisor{without_deadlines({.capture = crowd_cfg.capture}), model};
        rng eval_rng{31};
        const auto eval = evaluate(crowd, eval_rng, [&](const point_cloud& raw, rng& random) {
            return supervisor.process(raw, random).count;
        });

        table.add_row({to_string(method), text_table::num(100.0 * accuracy),
                       text_table::num(eval.metrics.mae), text_table::num(eval.metrics.mse)});
    }

    table.print(std::cout);
    print_paper_note(
        "HAP achieves the highest detection accuracy (99.97%, up to +12.44 over "
        "alternatives) and the lowest counting MAE/MSE (7.3-75.6% lower MAE). "
        "Expected shape: HAP best on both axes; TV (HAP minus the height "
        "channel) trails HAP; BEV loses the most from its missing vertical "
        "information.");
    return 0;
}
