#include "genomics/alphabet.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace quetzal::genomics {

std::string_view
letters(AlphabetKind kind)
{
    switch (kind) {
      case AlphabetKind::Dna:
        return kDnaLetters;
      case AlphabetKind::Rna:
        return kRnaLetters;
      case AlphabetKind::Protein:
        return kProteinLetters;
    }
    panic("unknown AlphabetKind {}", static_cast<int>(kind));
}

namespace {

constexpr std::array<std::uint8_t, 256>
makeByteTable(std::string_view alphabet, bool nucleotide)
{
    std::array<std::uint8_t, 256> table{};
    for (const char c : alphabet)
        table[static_cast<unsigned char>(c)] =
            nucleotide ? kByteValid | kBytePacks : kByteValid;
    if (nucleotide)
        table['N'] = kByteValid;
    return table;
}

} // namespace

const std::array<std::uint8_t, 256> &
byteTable(AlphabetKind kind)
{
    static constexpr auto kDna = makeByteTable(kDnaLetters, true);
    static constexpr auto kRna = makeByteTable(kRnaLetters, true);
    static constexpr auto kProtein = makeByteTable(kProteinLetters, false);
    switch (kind) {
      case AlphabetKind::Dna:
        return kDna;
      case AlphabetKind::Rna:
        return kRna;
      case AlphabetKind::Protein:
        return kProtein;
    }
    panic("unknown AlphabetKind {}", static_cast<int>(kind));
}

bool
isValid(AlphabetKind kind, char base)
{
    return letters(kind).find(base) != std::string_view::npos;
}

bool
isValid(AlphabetKind kind, std::string_view seq)
{
    return std::all_of(seq.begin(), seq.end(),
                       [kind](char c) { return isValid(kind, c); });
}

char
complement(char base)
{
    switch (base) {
      case 'A':
        return 'T';
      case 'C':
        return 'G';
      case 'G':
        return 'C';
      case 'T':
        return 'A';
      case 'N':
        return 'N';
      default:
        fatal("cannot complement non-DNA base '{}'", base);
    }
}

std::string
reverseComplement(std::string_view seq)
{
    std::string out(seq.size(), '\0');
    for (std::size_t i = 0; i < seq.size(); ++i)
        out[i] = complement(seq[seq.size() - 1 - i]);
    return out;
}

std::string_view
name(AlphabetKind kind)
{
    switch (kind) {
      case AlphabetKind::Dna:
        return "DNA";
      case AlphabetKind::Rna:
        return "RNA";
      case AlphabetKind::Protein:
        return "protein";
    }
    panic("unknown AlphabetKind {}", static_cast<int>(kind));
}

} // namespace quetzal::genomics
