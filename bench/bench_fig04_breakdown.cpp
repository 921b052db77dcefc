/**
 * @file
 * Fig. 4 reproduction: execution-time breakdown of the vectorized
 * WFA, BiWFA, and SneakySnake implementations on the baseline core.
 *
 * Paper: cache accesses account for 32%-65% of execution time.
 */
#include "bench_common.hpp"

namespace {

int
runBench(const quetzal::bench::Settings &settings)
{
    using namespace quetzal;
    using algos::AlgoKind;
    using algos::Variant;
    bench::banner("Fig. 4: execution-time breakdown of VEC "
                  "implementations", settings);

    TextTable table({"Algorithm", "Dataset", "Cycles", "Frontend",
                     "Compute", "Cache access", "RS/LSQ stall"});

    bench::CellBatch batch(settings);
    struct Row
    {
        AlgoKind kind;
        std::string dataset;
        std::size_t vec;
    };
    std::vector<Row> rows;
    for (const AlgoKind kind :
         {AlgoKind::Wfa, AlgoKind::BiWfa, AlgoKind::SneakySnake}) {
        for (const auto &spec : genomics::datasetCatalog()) {
            const auto ds = bench::makeDatasetPtr(spec.name, settings.scale);
            rows.push_back(
                {kind, spec.name, batch.add(kind, ds, Variant::Vec)});
        }
    }
    batch.run();

    for (const Row &row : rows) {
        const auto &vec = batch[row.vec];
        const double total = static_cast<double>(vec.cycles);
        auto pct = [&](sim::StallKind kind) {
            return TextTable::num(
                       100.0 * vec.stallCycles(kind) / total, 1) +
                   "%";
        };
        table.addRow({std::string(algos::algoName(row.kind)),
                      row.dataset, std::to_string(vec.cycles),
                      pct(sim::StallKind::Frontend),
                      pct(sim::StallKind::Compute),
                      pct(sim::StallKind::Cache),
                      pct(sim::StallKind::Struct)});
    }
    table.print(std::cout);
    std::cout << "\nPaper: cache accesses are 32%-65% of execution "
                 "time, growing with sequence length.\n";
    bench::maybeWriteJson("fig04_breakdown", batch.outcome(), settings);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return quetzal::bench::runMain(argc, argv, runBench);
}
