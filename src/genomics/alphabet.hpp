/**
 * @file
 * Biological-sequence alphabets: DNA, RNA, and the 20-letter protein
 * alphabet, plus the ambiguous nucleotide 'N'.
 *
 * QUETZAL (Section IV-A) distinguishes two encoding regimes: 4-letter
 * nucleotide alphabets use a 2-bit code derived from ASCII bits 1..2,
 * while proteins (and 'N') fall back to an 8-bit code.
 */
#ifndef QUETZAL_GENOMICS_ALPHABET_HPP
#define QUETZAL_GENOMICS_ALPHABET_HPP

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace quetzal::genomics {

/** The kind of biological data a sequence holds. */
enum class AlphabetKind
{
    Dna,     //!< A, C, G, T
    Rna,     //!< A, C, G, U
    Protein, //!< 20 amino-acid letters
};

/** The 20 standard amino-acid one-letter codes. */
inline constexpr std::string_view kProteinLetters = "ACDEFGHIKLMNPQRSTVWY";

/** The DNA base letters. */
inline constexpr std::string_view kDnaLetters = "ACGT";

/** The RNA base letters. */
inline constexpr std::string_view kRnaLetters = "ACGU";

/** Letters of the given alphabet. */
std::string_view letters(AlphabetKind kind);

/** True when @p base is a valid letter of @p kind (uppercase). */
bool isValid(AlphabetKind kind, char base);

/** True when every character of @p seq is valid for @p kind. */
bool isValid(AlphabetKind kind, std::string_view seq);

// Per-byte facts of one alphabet, read with one lookup per base by the
// pair validator and the read-store codec (byteTable()).

/** A letter of the alphabet, or 'N' for DNA/RNA. */
inline constexpr std::uint8_t kByteValid = 0x1;
/** Round-trips through the 2-bit code (encodeBase2()). */
inline constexpr std::uint8_t kBytePacks = 0x2;

/**
 * The 256-entry byte table of @p kind: kByteValid for the alphabet's
 * letters (and 'N' for DNA/RNA), plus kBytePacks for the DNA/RNA
 * letters. Every other byte, lowercase included, maps to 0.
 */
const std::array<std::uint8_t, 256> &byteTable(AlphabetKind kind);

/** Watson-Crick complement of a DNA base; 'N' maps to 'N'. */
char complement(char base);

/** Reverse complement of a DNA sequence. */
std::string reverseComplement(std::string_view seq);

/** Human-readable alphabet name. */
std::string_view name(AlphabetKind kind);

} // namespace quetzal::genomics

#endif // QUETZAL_GENOMICS_ALPHABET_HPP
