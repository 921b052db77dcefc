/**
 * @file
 * qz-merge: reassemble the per-shard JSON reports of one partitioned
 * bench sweep (--shard K/N) into the report an unsharded run would
 * have produced — byte-identical, since both paths share the
 * algos::toJson(BenchReport) serializer.
 *
 *   qz-merge shard_1.json shard_2.json shard_3.json
 *   qz-merge shard_*.json --out merged.json
 */
#include <fstream>
#include <iostream>
#include <sstream>

#include "algos/report.hpp"
#include "cli_common.hpp"

namespace {

using namespace quetzal;

/** Parse one shard report file; fatal() names the offending file. */
algos::BenchReport
loadShardReport(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open '{}'", path);
    std::ostringstream text;
    text << in.rdbuf();
    const auto json = parseJson(text.str());
    fatal_if(!json, "'{}' is not valid JSON", path);
    auto report = algos::benchReportFromJson(*json);
    fatal_if(!report, "'{}' is not a bench report", path);
    fatal_if(!report->shard,
             "'{}' has no shard member — merge wants the per-shard "
             "files a bench run with --shard emits",
             path);
    return std::move(*report);
}

constexpr std::string_view kUsage =
    "qz-merge SHARD.json... [options]\n"
    "Merge the --json reports of one bench sweep run as --shard K/N\n"
    "into output byte-identical to the unsharded run's report.\n";

constexpr cli::Option kOptions[] = {
    {"out", "FILE", "", "write the merged report to FILE, not stdout"},
};

} // namespace

int
main(int argc, char **argv)
{
    try {
        const cli::Args args(argc, argv, kUsage, kOptions,
                             cli::kAnyPositional);
        if (args.has("help")) {
            std::cout << args.help();
            return 0;
        }
        if (args.positional().empty())
            cli::usageError("no SHARD.json files (see --help)");

        std::vector<algos::BenchReport> shards;
        for (const std::string &path : args.positional())
            shards.push_back(loadShardReport(path));
        const algos::BenchReport merged =
            algos::mergeShardReports(std::move(shards));
        const std::string json = algos::toJson(merged);

        if (args.has("out")) {
            std::ofstream out(args.get("out"));
            fatal_if(!out, "cannot open '{}' for writing",
                     args.get("out"));
            out << json << "\n";
            std::cerr << "merged " << args.positional().size()
                      << " shard(s) into " << args.get("out") << "\n";
        } else {
            std::cout << json << "\n";
        }
        return 0;
    } catch (const std::exception &e) {
        return cli::reportError(e);
    }
}
