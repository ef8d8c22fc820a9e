// Tests of the benchmark's own machinery: the percentile helper, the
// fleet outcome conservation behind failed_ratio, and the corpus
// generator's determinism. Build with the benchmark package and run
// .bench_build/replaybench/replaybench_tests from the checkout root.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "passes.hpp"
#include "replay/container.hpp"

namespace rb = replaybench;

namespace {

const std::filesystem::path golden_dir = std::filesystem::path{REPLAYBENCH_ROOT} / "data" / "golden";

std::filesystem::path scratch(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "replaybench_tests";
    std::filesystem::create_directories(dir);
    return dir / name;
}

std::string slurp(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, {}};
}

// A short walkway corpus: one frame per crowd size.
rb::workload_spec tiny_walkway() {
    rb::workload_spec spec = rb::find_workload("walkway_sparse");
    spec.frames_per_stratum = 1;
    return spec;
}

}  // namespace

TEST(Percentile, HighestSupportedLeavesTenSamplesBeyond) {
    EXPECT_EQ(rb::highest_supported_percentile(10000), 99.9);
    EXPECT_EQ(rb::highest_supported_percentile(1000), 99.0);
    EXPECT_EQ(rb::highest_supported_percentile(999), 95.0);
    EXPECT_EQ(rb::highest_supported_percentile(200), 95.0);
    EXPECT_EQ(rb::highest_supported_percentile(100), 90.0);
    EXPECT_EQ(rb::highest_supported_percentile(20), 50.0);
    EXPECT_EQ(rb::highest_supported_percentile(19), 0.0);
    EXPECT_EQ(rb::samples_beyond(1000, 99.0), 10u);
    EXPECT_EQ(rb::samples_beyond(999, 99.0), 9u);
}

TEST(Percentile, NearestRank) {
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
    EXPECT_EQ(rb::percentile(samples, 50.0), 50.0);
    EXPECT_EQ(rb::percentile(samples, 99.0), 99.0);
    EXPECT_EQ(rb::percentile(samples, 100.0), 100.0);
    EXPECT_EQ(rb::percentile(samples, 0.0), 1.0);
    EXPECT_EQ(rb::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_THROW(rb::percentile({}, 50.0), std::invalid_argument);
}

TEST(Generator, SameSeedSameBytesAnyThreadCount) {
    const rb::workload_spec spec = tiny_walkway();
    rb::generate_corpus(spec, 7, scratch("a.hwcc"), 1);
    rb::generate_corpus(spec, 7, scratch("b.hwcc"), 3);
    rb::generate_corpus(spec, 8, scratch("c.hwcc"), 3);
    const std::string a = slurp(scratch("a.hwcc"));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(scratch("b.hwcc")));
    EXPECT_NE(a, slurp(scratch("c.hwcc")));

    hawc::replay::container_reader reader{scratch("a.hwcc")};
    ASSERT_EQ(reader.stream_count(), 1u);
    EXPECT_EQ(reader.frame_count(0), spec.frames_per_stream());
    EXPECT_EQ(reader.stream(0).base_seed, rb::stream_seed(7, 0));
}

TEST(FleetOutcomes, EveryOfferedFrameLandsInOneBucket) {
    // fleet_faulty with a much lossier link on every pole, so every
    // bucket fills.
    rb::workload_spec spec = rb::find_workload("fleet_faulty");
    spec.frames_per_stratum = 30;  // enough frames that the sensor faults cost a stale answer
    for (rb::pole_faults& p : spec.pole_plan) {
        p.link.drop_prob = 0.1;
        p.link.delay_prob = 0.3;
        p.link.reorder_prob = 0.2;
        p.link.duplicate_prob = 0.2;
        p.link.corrupt_prob = 0.5;  // checksum streaks quarantine poles
    }
    rb::generate_corpus(spec, 3, scratch("fleet.hwcc"), 2);

    rb::golden_models models{golden_dir};
    hawc::replay::container_reader reader{scratch("fleet.hwcc")};
    const rb::pass_result r = rb::fleet_pass(spec, models, reader, nullptr);
    const rb::fleet_outcomes& o = r.outcomes;

    std::uint64_t silent = 0;
    for (std::size_t pole = 0; pole < spec.poles; ++pole) {
        for (std::uint64_t t = 0; t < spec.frames_per_stream(); ++t) {
            silent += rb::pole_silent(spec, pole, t, spec.frames_per_stream()) ? 1 : 0;
        }
    }
    EXPECT_GT(silent, 0u);
    EXPECT_EQ(o.submitted, spec.poles * spec.frames_per_stream() - silent);
    EXPECT_TRUE(o.conserved()) << "offered " << o.offered() << " accounted " << o.accounted();
    EXPECT_EQ(o.offered(), o.fresh + o.dropped + o.stale + o.lost + o.shed + o.rejected);
    EXPECT_EQ(o.pending, 0u);  // the drain ticks flush links and inboxes
    EXPECT_GT(o.lost, 0u);
    EXPECT_GT(o.rejected, 0u);
    EXPECT_GT(o.stale + o.dropped, 0u);
    EXPECT_GT(o.duplicated, 0u);
    EXPECT_EQ(r.failed_ops, 0u);  // every tick published a consistent board
    EXPECT_DOUBLE_EQ(o.failed_ratio(),
                     static_cast<double>(o.offered() - o.fresh) / static_cast<double>(o.offered()));

    // The same corpus through a fresh fleet reproduces every outcome.
    const rb::pass_result again = rb::fleet_pass(spec, models, reader, nullptr);
    EXPECT_EQ(again.outputs.value(), r.outputs.value());
    EXPECT_EQ(again.outcomes.fresh, o.fresh);
}
