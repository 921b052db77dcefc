/**
 * @file
 * qz-datagen: generate read/reference pair workloads.
 *
 *   qz-datagen --dataset 100bp_1 --scale 0.5 --out pairs.txt
 *   qz-datagen --dataset 100bp_1 --scale 2500 --store reads.qzs
 *   qz-datagen --length 5000 --error 0.04 --count 20 --out pairs.txt
 *   qz-datagen --length 250 --count 100 --fasta reads.fa
 *
 * Generation streams through a GeneratorPairSource batch by batch, so
 * writing a million-pair store (or pair file) needs memory for one
 * batch, not the whole dataset.
 */
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "cli_common.hpp"
#include "genomics/datasets.hpp"
#include "genomics/fasta.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/readsim.hpp"
#include "genomics/store.hpp"

constexpr std::string_view kUsage =
    "qz-datagen [options]: generate pattern/text pair workloads\n";

constexpr quetzal::cli::Option kOptions[] = {
    {"dataset", "NAME", "",
     "Table II dataset (100bp_1|250bp_1|10Kbp|30Kbp)"},
    {"scale", "S", "1.0", "dataset scale factor (with --dataset)"},
    {"length", "N", "250", "custom read length"},
    {"error", "R", "0.03", "custom per-base error rate, 0 to 1"},
    {"count", "N", "100", "custom pair count"},
    {"seed", "N", "42", "custom RNG seed"},
    {"out", "FILE", "pairs.txt",
     "write a '>'/'<' pair file (skipped under --store unless given)"},
    {"store", "FILE", "",
     "write an indexed binary read store (docs/STORE.md)"},
    {"fasta", "FILE", "", "also write the patterns as FASTA"},
};

int
main(int argc, char **argv)
{
    using namespace quetzal;
    try {
        const cli::Args args(argc, argv, kUsage, kOptions, 0);
        if (args.has("help")) {
            std::cout << args.help();
            return 0;
        }

        // The generator IS the dataset: catalog mode replays exactly
        // what makeDataset() would materialize (same seeds, same
        // low/high interleave), custom mode a single simulator.
        // Each mode reads only its own options, so one given for the
        // other mode is a mistake, not something to ignore.
        std::unique_ptr<genomics::GeneratorPairSource> source;
        if (args.has("dataset")) {
            for (const char *custom : {"length", "error", "count", "seed"})
                if (args.has(custom))
                    cli::usageError("--{} sets up a custom dataset and "
                                    "cannot be combined with --dataset",
                                    custom);
            const double scale = args.getDouble("scale");
            if (scale <= 0.0)
                cli::usageError("option --scale must be positive, got {}",
                                scale);
            source = std::make_unique<genomics::GeneratorPairSource>(
                args.get("dataset"), scale);
        } else {
            if (args.has("scale"))
                cli::usageError("--scale applies only with --dataset");
            genomics::ReadSimConfig config;
            config.readLength =
                static_cast<std::size_t>(args.getInt("length", 1));
            config.errorRate = args.getDouble("error");
            if (config.errorRate < 0.0 || config.errorRate > 1.0)
                cli::usageError("option --error must be in [0, 1], got {}",
                                config.errorRate);
            config.seed =
                static_cast<std::uint64_t>(args.getInt("seed", 0));
            source = std::make_unique<genomics::GeneratorPairSource>(
                config,
                static_cast<std::size_t>(args.getInt("count", 1)));
        }
        const genomics::SourceInfo &info = source->info();

        std::optional<genomics::StoreWriter> store;
        if (args.has("store")) {
            genomics::StoreProvenance provenance;
            provenance.name = info.name;
            provenance.scale = source->scale();
            provenance.seed = source->seed();
            provenance.readLength = info.readLength;
            provenance.errorRate = info.errorRate;
            store.emplace(args.get("store"), provenance);
        }

        // A pair file is written by default, but --store alone skips
        // it — the store is the artifact.
        const bool wantPairFile = args.has("out") || !store;
        const std::string outPath = args.get("out");
        std::ofstream file;
        if (wantPairFile) {
            file.open(outPath);
            fatal_if(!file, "cannot open '{}' for writing", outPath);
        }
        std::ofstream fa;
        if (args.has("fasta")) {
            fa.open(args.get("fasta"));
            fatal_if(!fa, "cannot open '{}' for writing",
                     args.get("fasta"));
        }

        // One pass over the stream feeds every sink: pair-file chunks
        // concatenate identically to one writePairFile() call, and
        // the store writer appends as it goes.
        std::size_t generated = 0;
        genomics::PairBatch batch;
        std::vector<genomics::SequencePair> chunk;
        std::vector<genomics::Sequence> reads;
        while (source->next(batch) > 0) {
            if (store)
                for (const genomics::PairView &view : batch.views())
                    store->add(genomics::SequencePair{
                        std::string(view.pattern),
                        std::string(view.text), view.alphabet,
                        view.trueEdits});
            if (wantPairFile) {
                chunk.clear();
                for (const genomics::PairView &view : batch.views())
                    chunk.push_back(genomics::SequencePair{
                        std::string(view.pattern),
                        std::string(view.text), view.alphabet,
                        view.trueEdits});
                genomics::writePairFile(file, chunk);
            }
            if (fa.is_open()) {
                reads.clear();
                for (const genomics::PairView &view : batch.views()) {
                    genomics::Sequence seq;
                    seq.id = "read_" +
                             std::to_string(generated + reads.size());
                    seq.bases = std::string(view.pattern);
                    reads.push_back(std::move(seq));
                }
                genomics::writeFasta(fa, reads);
            }
            generated += batch.size();
        }

        if (store) {
            store->finish();
            std::cout << "wrote " << generated << " pairs of ~"
                      << info.readLength << " bp to store "
                      << args.get("store") << "\n";
        }
        if (wantPairFile)
            std::cout << "wrote " << generated << " pairs of ~"
                      << info.readLength << " bp to " << outPath
                      << "\n";
        if (fa.is_open())
            std::cout << "wrote " << generated << " reads to "
                      << args.get("fasta") << "\n";
        return 0;
    } catch (const std::exception &e) {
        return cli::reportError(e);
    }
}
