// Table VI + Figure 11: scalability of HAWC-CC to synthetic high-density
// crowds (20 to 250 pedestrians composited from single-person clusters
// with +-5 m offsets, objects at a 1:2 ratio).
//
// Paper: MAE grows from 0.47 (20 people) to 5.90 (250 people); accuracy
// stays at 97.6%+ even in the high-density setting, beating RGB-based
// SOTA (Su 90.9%, Liu 77.1%, Hao 86.27%).

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "runtime/supervisor.hpp"

using namespace hawc;
using namespace hawc::bench;

int main() {
    print_header("Table VI / Figure 11",
                 "Scalability: density scenes composited from single-person clusters");

    auto ds = standard_dataset();
    rng r{7};
    hawc_model model = train_standard_hawc(ds, r);

    // Donor clusters from the training split (labels known by class).
    std::vector<point_cloud> humans;
    std::vector<point_cloud> objects;
    for (std::size_t i = 0; i < ds.train.size(); ++i) {
        (ds.train.labels[i] == label_human ? humans : objects)
            .push_back(ds.train.clusters[i]);
    }

    // Counting config for the composited area: offsets push people to
    // 7..40 m from the sensor (paper Sec. VII-D), so the ROI widens.
    capture_config count_cfg = standard_crowd_config().capture;
    count_cfg.roi.x_min_m = 5.0;
    count_cfg.roi.x_max_m = 42.0;
    count_cfg.roi.y_min_m = -10.0;
    count_cfg.roi.y_max_m = 10.0;
    frame_supervisor supervisor{without_deadlines({.capture = count_cfg}), model};

    const std::size_t runs = scaled(3, 2);
    const std::size_t samples_per_run = scaled(10, 4);

    text_table table{{"# Pedestrians", "Density", "MAE", "MSE", "Total (K)", "Counted (K)",
                      "Accuracy (%)"}};

    const std::size_t pedestrian_counts[] = {20, 30, 40, 50, 60, 70, 80, 90, 100, 150, 200, 250};
    bool printed_offsets = false;
    for (const std::size_t people : pedestrian_counts) {
        running_stats mae_runs;
        running_stats mse_runs;
        running_stats counted_runs;
        std::cerr << "[bench] density level " << people << " pedestrians...\n";
        for (std::size_t run = 0; run < runs; ++run) {
            counting_accumulator acc;
            rng run_rng{1000 + people * 10 + run};
            for (std::size_t s = 0; s < samples_per_run; ++s) {
                density_scene_config cfg;
                cfg.pedestrians = people;
                const density_scene scene =
                    build_density_scene(cfg, humans, objects, run_rng);
                const frame_report result = supervisor.process(scene.cloud, run_rng);
                acc.add(static_cast<double>(result.count),
                        static_cast<double>(scene.ground_truth));

                // Figure 11: offset distribution for one representative scene.
                if (!printed_offsets && people == 100) {
                    histogram hx{-5.0, 5.0, 10};
                    hx.add(scene.x_offsets);
                    std::cout << "Figure 11: x-offset distribution, 100-pedestrian scene:\n";
                    for (const auto& row : hx.ascii_rows(40)) std::cout << "  " << row << "\n";
                    std::cout << "\n";
                    printed_offsets = true;
                }
            }
            const auto m = acc.metrics();
            mae_runs.add(m.mae);
            mse_runs.add(m.mse);
            counted_runs.add(m.total_predicted / 1000.0);
        }
        const double total_k =
            static_cast<double>(people * samples_per_run) / 1000.0;
        const double accuracy =
            100.0 * (1.0 - std::abs(counted_runs.mean() - total_k) / total_k);
        table.add_row({std::to_string(people), density_level_name(people),
                       text_table::pm(mae_runs.mean(), mae_runs.stddev(), 3),
                       text_table::pm(mse_runs.mean(), mse_runs.stddev(), 3),
                       text_table::num(total_k, 3),
                       text_table::pm(counted_runs.mean(), counted_runs.stddev(), 3),
                       text_table::num(accuracy)});
    }

    table.print(std::cout);
    print_paper_note(
        "MAE 0.473 at 20 pedestrians rising to 5.903 at 250; count accuracy "
        "97.64% in the high-density setting vs RGB SOTA: Su et al. 90.9%, Liu et "
        "al. 77.1%, Hao et al. 86.27%. Expected shape: MAE/MSE grow smoothly "
        "with density while relative accuracy stays high (> 90%).");
    return 0;
}
