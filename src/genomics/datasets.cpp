#include "genomics/datasets.hpp"

#include <algorithm>
#include <sstream>

#include "common/logging.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/readsim.hpp"

namespace quetzal::genomics {

const std::vector<DatasetSpec> &
datasetCatalog()
{
    // The SneakySnake datasets the paper uses are read/candidate
    // pairs from a mapper's seed locations: roughly half align within
    // a few percent edits and the rest are clearly divergent (that is
    // what pre-alignment filters exist for). We reproduce that bimodal
    // mix: alternating pairs use errorRate and highErrorRate. Pair
    // counts are sized so the scalar-baseline simulations finish in
    // seconds (the paper likewise constrained dataset sizes for gem5);
    // scale them via makeDataset()'s scale argument.
    static const std::vector<DatasetSpec> catalog = {
        {"100bp_1", 100, 0.03, 0.12, 400, false},
        {"250bp_1", 250, 0.03, 0.12, 160, false},
        {"10Kbp", 10000, 0.03, 0.05, 4, true},
        {"30Kbp", 30000, 0.03, 0.05, 2, true},
    };
    return catalog;
}

const DatasetSpec &
datasetSpec(std::string_view name)
{
    for (const auto &spec : datasetCatalog())
        if (spec.name == name)
            return spec;
    std::ostringstream known;
    for (const auto &spec : datasetCatalog())
        known << (known.tellp() > 0 ? ", " : "") << spec.name;
    fatal("unknown dataset '{}' (valid names: {})", name,
          known.str());
}

namespace {

/**
 * First invalid character of @p seq for @p kind, or npos. 'N' passes
 * for nucleotide alphabets: the encoder handles it via the 8-bit
 * fallback and complement() maps it to itself.
 */
std::size_t
firstInvalid(std::string_view seq, AlphabetKind kind)
{
    const std::array<std::uint8_t, 256> &table = byteTable(kind);
    for (std::size_t i = 0; i < seq.size(); ++i)
        if ((table[static_cast<unsigned char>(seq[i])] & kByteValid) == 0)
            return i;
    return std::string_view::npos;
}

void
validateSide(std::string_view seq, std::string_view side,
             AlphabetKind kind, std::size_t index,
             std::string_view context)
{
    fatal_if(seq.empty(),
             "{}: pair {} has an empty {} — remove the pair or fix "
             "the input file",
             context, index, side);
    const std::size_t bad = firstInvalid(seq, kind);
    if (bad == std::string_view::npos)
        return;
    const char c = seq[bad];
    const bool printable = c >= 0x20 && c < 0x7f;
    fatal("{}: pair {} {} has invalid {} character {} at position {} "
          "(expected one of '{}'{}) — check the input encoding or "
          "pass the matching alphabet",
          context, index, side, name(kind),
          printable ? qformat("'{}'", c)
                    : qformat("0x{}", static_cast<int>(
                                          static_cast<unsigned char>(c))),
          bad, letters(kind),
          kind != AlphabetKind::Protein ? " or 'N'" : "");
}

} // namespace

void
validatePair(const SequencePair &pair, AlphabetKind kind,
             std::size_t index, std::string_view context)
{
    validateSide(pair.pattern, "pattern", kind, index, context);
    validateSide(pair.text, "text", kind, index, context);
}

void
validatePairs(const PairDataset &dataset)
{
    for (std::size_t i = 0; i < dataset.pairs.size(); ++i)
        validatePair(dataset.pairs[i], dataset.pairs[i].alphabet, i,
                     dataset.name);
}

PairDataset
makeDataset(std::string_view name, double scale)
{
    // The generator source is the single definition of catalog pair
    // synthesis (seeds, bimodal interleave, per-pair validation);
    // materializing it here keeps in-RAM callers byte-identical to
    // streaming ones (tests/test_store.cpp pins this).
    return GeneratorPairSource(name, scale).materialize();
}

std::vector<std::string>
shortReadNames()
{
    std::vector<std::string> names;
    for (const auto &spec : datasetCatalog())
        if (!spec.longRead)
            names.push_back(spec.name);
    return names;
}

std::vector<std::string>
longReadNames()
{
    std::vector<std::string> names;
    for (const auto &spec : datasetCatalog())
        if (spec.longRead)
            names.push_back(spec.name);
    return names;
}

} // namespace quetzal::genomics
