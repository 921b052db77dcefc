/**
 * @file
 * Fig. 13a reproduction: single-core speedups of VEC / QUETZAL /
 * QUETZAL+C over the scalar baseline for all five use cases.
 *
 * Paper averages (over VEC): modern aligners 1.5x/2.1x short and
 * 5.1x/5.5x long (QUETZAL / QUETZAL+C); SS 2.1x short, 5.2x long;
 * classic SW 1.3x, NW 1.4x; protein 6.0x/6.6x.
 */
#include "bench_common.hpp"

namespace {

int
runBench(const quetzal::bench::Settings &settings)
{
    using namespace quetzal;
    using algos::AlgoKind;
    using algos::Variant;
    bench::banner("Fig. 13a: single-core speedup over the baseline", settings);

    TextTable table({"Algorithm", "Dataset",
                     std::string(algos::variantName(Variant::Vec)),
                     std::string(algos::variantName(Variant::Qz)),
                     std::string(algos::variantName(Variant::QzC)),
                     "QZ/VEC", "QZ+C/VEC"});

    // Phase 1: queue every cell of the figure on the batch engine.
    bench::CellBatch batch(settings);
    struct Row
    {
        AlgoKind kind;
        std::string dataset;
        std::size_t base, vec, qz, qzc;
    };
    std::vector<Row> rows;

    auto submit = [&](AlgoKind kind, const bench::DatasetPtr &ds,
                      std::size_t maxLen,
                      genomics::AlphabetKind alphabet) {
        Row row{kind, ds->name, 0, 0, 0, 0};
        row.base = batch.add(kind, ds, Variant::Base, maxLen, alphabet);
        row.vec = batch.add(kind, ds, Variant::Vec, maxLen, alphabet);
        row.qz = batch.add(kind, ds, Variant::Qz, maxLen, alphabet);
        row.qzc = batch.add(kind, ds, Variant::QzC, maxLen, alphabet);
        rows.push_back(std::move(row));
    };

    const std::size_t classicCap = 1000;
    for (const auto &spec : genomics::datasetCatalog()) {
        const auto ds = bench::makeDatasetPtr(spec.name, settings.scale);
        submit(AlgoKind::Wfa, ds, ~std::size_t{0},
               genomics::AlphabetKind::Dna);
        submit(AlgoKind::BiWfa, ds, ~std::size_t{0},
               genomics::AlphabetKind::Dna);
        submit(AlgoKind::SneakySnake, ds, ~std::size_t{0},
               genomics::AlphabetKind::Dna);
        submit(AlgoKind::Swg, ds, ~std::size_t{0},
               genomics::AlphabetKind::Dna);
        submit(AlgoKind::Nw, ds, classicCap,
               genomics::AlphabetKind::Dna);
    }

    // Use case 4: protein alignment (8-bit encoding).
    const auto protein = std::make_shared<const genomics::PairDataset>(
        bench::proteinDataset(settings.scale));
    submit(AlgoKind::Wfa, protein, ~std::size_t{0},
           genomics::AlphabetKind::Protein);
    submit(AlgoKind::SneakySnake, protein, ~std::size_t{0},
           genomics::AlphabetKind::Protein);

    // Phase 2: run the whole matrix in parallel, then print in
    // submission order.
    batch.run();
    for (const Row &row : rows) {
        const auto &base = batch[row.base];
        const auto &vec = batch[row.vec];
        const auto &qz = batch[row.qz];
        const auto &qzc = batch[row.qzc];
        auto rel = [&](const algos::RunResult &r) {
            return TextTable::num(algos::speedup(base, r), 2) + "x";
        };
        table.addRow({std::string(algos::algoName(row.kind)),
                      row.dataset, rel(vec), rel(qz), rel(qzc),
                      TextTable::num(algos::speedup(vec, qz), 2) + "x",
                      TextTable::num(algos::speedup(vec, qzc), 2) +
                          "x"});
    }

    table.print(std::cout);
    std::cout << "\nNW is length-capped at " << classicCap
              << " bp (full-table DP; the paper likewise constrained "
                 "datasets for simulation time).\n";
    bench::maybeWriteJson("fig13a_singlecore", batch.outcome(), settings);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return quetzal::bench::runMain(argc, argv, runBench);
}
