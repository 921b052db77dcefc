/**
 * @file
 * Golden-metrics regression: the BenchReport JSON of two small,
 * pinned sweeps must be byte-identical to the snapshots in tests/data/
 * — pinning every simulated metric (cycles, instructions, requests,
 * DRAM bytes, scores, stall breakdowns) against drift from host-side
 * optimization work:
 *  - the tiny matrix: 12 short-read cells, {100bp_1, 250bp_1} x
 *    {WFA, SneakySnake} x {BASE, VEC, QUETZAL+C};
 *  - the kernel matrix: the Fig. 15b histogram and SpMV cells, every
 *    registered variant.
 * Both run at the pinned kTinyScale. The snapshots keep the "qz-perf"
 * bench label of the harness that first wrote them, so the files stay
 * byte-identical.
 *
 * Regenerate deliberately with QZ_UPDATE_GOLDEN=1 after a change that
 * is *supposed* to alter simulated behavior, and say why in the PR.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "genomics/datasets.hpp"

namespace quetzal {
namespace {

/** Pinned scale of both matrices (the golden metrics depend on it). */
constexpr double kTinyScale = 0.1;

/** The bench label recorded in the snapshots. */
constexpr const char *kGoldenBench = "qz-perf";

std::string
goldenPath(const char *file)
{
    return std::string(QZ_TESTS_DATA_DIR) + "/" + file;
}

/** Bench-style cell options: no verification, QUETZAL hw as needed. */
algos::RunOptions
cellOptions(algos::Variant variant)
{
    algos::RunOptions options;
    options.variant = variant;
    options.verify = false;
    if (algos::needsQuetzal(variant))
        options.system = sim::SystemParams::withQuetzal(8);
    return options;
}

/** Run the cells queued on @p runner and serialize the report. */
std::string
reportJson(algos::BatchRunner &runner)
{
    const algos::BatchOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.ok());
    return algos::toJson(
        algos::makeBenchReport(kGoldenBench, kTinyScale, 1, outcome));
}

std::string
tinyMatrixReportJson()
{
    algos::BatchRunner runner(1);
    std::size_t cells = 0;
    for (const char *name : {"100bp_1", "250bp_1"}) {
        const auto ds = std::make_shared<const genomics::PairDataset>(
            genomics::makeDataset(name, kTinyScale));
        for (const algos::AlgoKind kind :
             {algos::AlgoKind::Wfa, algos::AlgoKind::SneakySnake}) {
            for (const algos::Variant variant :
                 {algos::Variant::Base, algos::Variant::Vec,
                  algos::Variant::QzC}) {
                runner.add(kind, ds, cellOptions(variant));
                ++cells;
            }
        }
    }
    EXPECT_EQ(cells, 12u);
    return reportJson(runner);
}

std::string
kernelMatrixReportJson()
{
    algos::BatchRunner runner(1);
    std::size_t cells = 0;
    for (const char *name : {"histogram", "spmv"}) {
        const algos::Workload &workload = algos::workloadByName(name);
        const auto ds = std::make_shared<const genomics::PairDataset>(
            workload.makeDataset(name, kTinyScale));
        for (const algos::Variant variant : workload.variants()) {
            runner.add(workload, ds, cellOptions(variant));
            ++cells;
        }
    }
    EXPECT_EQ(cells, 6u);
    return reportJson(runner);
}

/** Byte-compare @p json against the snapshot file @p file. */
void
expectMatchesGolden(const std::string &json, const char *file)
{
    const std::string path = goldenPath(file);
    if (const char *update = std::getenv("QZ_UPDATE_GOLDEN");
        update && *update && std::string_view(update) != "0") {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << json << "\n";
        GTEST_SKIP() << "golden snapshot regenerated at " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden snapshot " << path
                    << " (generate with QZ_UPDATE_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), json + "\n")
        << "simulated metrics drifted from tests/data/" << file
        << "; if the change is intentional, regenerate with "
           "QZ_UPDATE_GOLDEN=1 and explain why";
}

TEST(GoldenMetrics, TinyMatrixIsByteIdenticalToSnapshot)
{
    expectMatchesGolden(tinyMatrixReportJson(), "golden_cells.json");
}

TEST(GoldenMetrics, KernelMatrixIsByteIdenticalToSnapshot)
{
    // Histogram (scatter-heavy) and SpMV (gather-heavy) pin the
    // Fig. 15b ISA-layer paths the genomics matrix exercises lightly.
    expectMatchesGolden(kernelMatrixReportJson(),
                        "golden_kernels.json");
}

TEST(GoldenMetrics, UnknownResultFieldsAreIgnoredOnLoad)
{
    // Checkpoints written by older builds may carry fields this one no
    // longer emits (host wall-clock did); they must keep loading.
    algos::RunResult result;
    result.algo = "WFA";
    result.variant = "BASE";
    result.dataset = "d";
    result.cycles = 42;
    std::string json = algos::toJson(result);
    json.insert(json.find("\"stalls\""), "\"retired_field\":1234,");
    const auto parsed = parseJson(json);
    ASSERT_TRUE(parsed.has_value());
    const auto back = algos::runResultFromJson(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(algos::toJson(*back), algos::toJson(result));
}

} // namespace
} // namespace quetzal
