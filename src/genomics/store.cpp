#include "genomics/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <ctime>
#include <deque>
#include <mutex>

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "genomics/datasets.hpp"

namespace quetzal::genomics {

namespace {

// Fixed header prefix before the variable-length name (docs/STORE.md).
constexpr std::size_t kFixedHeaderBytes = 92;
constexpr std::size_t kIndexEntryBytes = 32;
constexpr std::size_t kMaxNameBytes = 4096;
constexpr std::size_t kChecksumOffset = 48;
constexpr std::size_t kWriteBufferBytes = 64 * 1024;
constexpr std::size_t kVerifyChunkBytes = 256 * 1024;
constexpr std::string_view kRetiredStoreMagic = "QZSTORE1";

constexpr std::uint8_t kFlagPatternRaw = 1u << 0;
constexpr std::uint8_t kFlagTextRaw = 1u << 1;
constexpr unsigned kFlagAlphabetShift = 2;

std::size_t
align8(std::size_t bytes)
{
    return (bytes + 7) & ~std::size_t{7};
}

std::size_t
packedBytes(std::size_t bases, bool raw)
{
    return raw ? bases : (bases + 3) / 4;
}

void
putU32(unsigned char *dst, std::uint32_t value)
{
    for (unsigned i = 0; i < 4; ++i)
        dst[i] = static_cast<unsigned char>(value >> (8 * i));
}

void
putU64(unsigned char *dst, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        dst[i] = static_cast<unsigned char>(value >> (8 * i));
}

std::uint32_t
getU32(const unsigned char *src)
{
    std::uint32_t value = 0;
    for (unsigned i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(src[i]) << (8 * i);
    return value;
}

std::uint64_t
getU64(const unsigned char *src)
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    return value;
}

std::uint8_t
alphabetCode(AlphabetKind kind)
{
    switch (kind) {
      case AlphabetKind::Dna:
        return 0;
      case AlphabetKind::Rna:
        return 1;
      default:
        return 2;
    }
}

AlphabetKind
alphabetFromCode(std::uint8_t code)
{
    switch (code) {
      case 0:
        return AlphabetKind::Dna;
      case 1:
        return AlphabetKind::Rna;
      case 2:
        return AlphabetKind::Protein;
      default:
        fatal("read store: unknown alphabet code {}", code);
    }
}

/**
 * The 2-bit codes of the 8 bytes of @p chunk (byte i in bits 8i..8i+7)
 * as 16 bits, byte i's in bits 2i..2i+1. A code is the byte's ASCII
 * bits 1..2 (encodeBase2()), so every shift works on all bytes at once.
 */
std::uint64_t
pack8(std::uint64_t chunk)
{
    std::uint64_t codes = (chunk >> 1) & 0x0303030303030303ULL;
    codes = (codes | codes >> 6) & 0x000F000F000F000FULL;
    codes = (codes | codes >> 12) & 0x000000FF000000FFULL;
    return (codes | codes >> 24) & 0xFFFFULL;
}

/**
 * One pass over @p seq: packs it 2 bits per base, 32 bases per
 * little-endian word, into @p packed (byte-identical to 4 bases per
 * byte, LSB-first) and returns the AND of the bytes' entries in their
 * alphabet's byte @p table. kByteValid is set only when @p seq is
 * non-empty and every byte is valid; kBytePacks when every byte packs
 * (otherwise @p packed is meaningless).
 */
unsigned
packSide(std::string_view seq, const std::array<std::uint8_t, 256> &table,
         std::vector<unsigned char> &packed)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(seq.data());
    const std::size_t size = seq.size();
    packed.resize(8 * ((size + 31) / 32));
    unsigned all = size == 0 ? 0 : kByteValid | kBytePacks;
    std::uint64_t word = 0;
    std::size_t at = 0;
    const auto take = [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i)
            all &= table[bytes[at + i]];
        word |= pack8(loadLittleEndian(bytes + at, count))
                << (2 * (at % 32));
        at += count;
        if (at % 32 == 0 || at == size) {
            putU64(packed.data() + (at - 1) / 32 * 8, word);
            word = 0;
        }
    };
    while (size - at >= 8)
        take(8);
    if (at < size)
        take(size - at);
    return all;
}

/** The 4 bases of every packed byte, LSB-first, for one alphabet. */
struct ByteDecoder
{
    char bases[256][4];
};

/** @p byCode lists the letter of each 2-bit code (encodeBase2()). */
constexpr ByteDecoder
makeDecoder(std::string_view byCode)
{
    ByteDecoder decoder{};
    for (unsigned byte = 0; byte < 256; ++byte)
        for (unsigned i = 0; i < 4; ++i)
            decoder.bases[byte][i] = byCode[(byte >> (2 * i)) & 0x3u];
    return decoder;
}

constexpr ByteDecoder kDnaDecoder = makeDecoder("ACTG");
constexpr ByteDecoder kRnaDecoder = makeDecoder("ACUG");

/**
 * What a verified checksum vouches for: the file as fstat() saw it on
 * the open's own fd, plus the checksum its header claims. Any write
 * to the file moves its ctime, so a rewrite is a new identity.
 */
struct FileIdentity
{
    dev_t dev;
    ino_t ino;
    off_t size;
    std::int64_t mtimeNs;
    std::int64_t ctimeNs;
    std::uint64_t checksum;

    bool operator==(const FileIdentity &) const = default;
};

std::int64_t
toNs(const timespec &ts)
{
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/**
 * The last kVerifiedFiles identities whose checksum this process has
 * verified (FIFO), so reopening one skips the O(file) hash.
 */
class VerifiedFiles
{
  public:
    bool
    contains(const FileIdentity &identity)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::find(files_.begin(), files_.end(), identity) !=
               files_.end();
    }

    /**
     * Remember @p identity, verified from @p verifyStartNs on. A ctime
     * under ~1 s older than that is racy (git's index rule): a rewrite
     * inside the same coarse timestamp tick could keep the identity,
     * so such a file is verified again on every open until it ages.
     */
    void
    add(const FileIdentity &identity, std::int64_t verifyStartNs)
    {
        if (verifyStartNs - identity.ctimeNs < 1'000'000'000)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        if (files_.size() == kVerifiedFiles)
            files_.pop_front();
        files_.push_back(identity);
    }

  private:
    static constexpr std::size_t kVerifiedFiles = 64;
    std::mutex mutex_;
    std::deque<FileIdentity> files_;
};

VerifiedFiles &
verifiedFiles()
{
    static VerifiedFiles files;
    return files;
}

/** Serialize the header; @p headerBytes is the name-padded size. */
std::vector<unsigned char>
encodeHeader(const StoreProvenance &provenance,
             std::uint64_t pairCount, std::uint64_t payloadOffset,
             std::uint64_t payloadBytes, std::uint64_t indexOffset,
             std::uint64_t checksum)
{
    const std::string &name = provenance.name;
    std::vector<unsigned char> header(
        align8(kFixedHeaderBytes + name.size()), 0);
    std::memcpy(header.data(), kStoreMagic.data(), kStoreMagic.size());
    putU32(header.data() + 8, kStoreVersion);
    putU32(header.data() + 12, 0); // reserved flags
    putU64(header.data() + 16, pairCount);
    putU64(header.data() + 24, payloadOffset);
    putU64(header.data() + 32, payloadBytes);
    putU64(header.data() + 40, indexOffset);
    putU64(header.data() + kChecksumOffset, checksum);
    putU64(header.data() + 56, provenance.seed);
    putU64(header.data() + 64,
           std::bit_cast<std::uint64_t>(provenance.scale));
    putU64(header.data() + 72,
           std::bit_cast<std::uint64_t>(provenance.errorRate));
    putU64(header.data() + 80,
           static_cast<std::uint64_t>(provenance.readLength));
    putU32(header.data() + 88,
           static_cast<std::uint32_t>(name.size()));
    std::memcpy(header.data() + kFixedHeaderBytes, name.data(),
                name.size());
    return header;
}

void
encodeIndexEntry(unsigned char *dst, std::uint64_t offset,
                 std::uint32_t patternBases, std::uint32_t textBases,
                 std::int64_t trueEdits, std::uint8_t flags)
{
    std::memset(dst, 0, kIndexEntryBytes);
    putU64(dst, offset);
    putU32(dst + 8, patternBases);
    putU32(dst + 12, textBases);
    putU64(dst + 16, static_cast<std::uint64_t>(trueEdits));
    dst[24] = flags;
}

} // namespace

// ---------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(const std::string &path,
                         StoreProvenance provenance)
    : path_(path), provenance_(std::move(provenance))
{
    fatal_if(provenance_.name.size() > kMaxNameBytes,
             "store dataset name longer than {} bytes",
             kMaxNameBytes);
    out_.open(path_, std::ios::binary | std::ios::trunc);
    fatal_if(!out_, "cannot open '{}' for writing", path_);
    // Placeholder header: counts and checksum are zero until
    // finish(), so a torn write is rejected by open().
    const auto header = encodeHeader(provenance_, 0, 0, 0, 0, 0);
    payloadOffset_ = header.size();
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    pending_.reserve(kWriteBufferBytes);
}

StoreWriter::~StoreWriter()
{
    if (!finished_ && out_.is_open())
        warn("store writer for '{}' destroyed before finish(); the "
             "file is incomplete and will be rejected on open",
             path_);
}

void
StoreWriter::append(const void *bytes, std::size_t count)
{
    if (pending_.size() + count > kWriteBufferBytes)
        flush();
    const auto *in = static_cast<const unsigned char *>(bytes);
    pending_.insert(pending_.end(), in, in + count);
    payloadBytes_ += count;
}

void
StoreWriter::flush()
{
    checksum_.update(pending_.data(), pending_.size());
    out_.write(reinterpret_cast<const char *>(pending_.data()),
               static_cast<std::streamsize>(pending_.size()));
    pending_.clear();
}

void
StoreWriter::add(const SequencePair &pair)
{
    fatal_if(finished_, "store writer for '{}' already finished",
             path_);
    const std::array<std::uint8_t, 256> &table = byteTable(pair.alphabet);
    const unsigned pattern = packSide(pair.pattern, table, packedPattern_);
    const unsigned text = packSide(pair.text, table, packedText_);
    if ((pattern & text & kByteValid) == 0) {
        // The byte table found a bad pair; the validator words it.
        validatePair(pair, pair.alphabet, pairs_, provenance_.name);
        panic("store pair {} failed the byte table but passed "
              "validatePair",
              pairs_);
    }
    fatal_if(pair.pattern.size() > ~std::uint32_t{0} ||
                 pair.text.size() > ~std::uint32_t{0},
             "store pair {} exceeds the 4 Gbase sequence limit",
             pairs_);
    const bool patternRaw = (pattern & kBytePacks) == 0;
    const bool textRaw = (text & kBytePacks) == 0;
    index_.resize(index_.size() + kIndexEntryBytes);
    encodeIndexEntry(
        index_.data() + index_.size() - kIndexEntryBytes, payloadBytes_,
        static_cast<std::uint32_t>(pair.pattern.size()),
        static_cast<std::uint32_t>(pair.text.size()), pair.trueEdits,
        static_cast<std::uint8_t>(
            (patternRaw ? kFlagPatternRaw : 0) |
            (textRaw ? kFlagTextRaw : 0) |
            (alphabetCode(pair.alphabet) << kFlagAlphabetShift)));
    append(patternRaw ? static_cast<const void *>(pair.pattern.data())
                      : packedPattern_.data(),
           packedBytes(pair.pattern.size(), patternRaw));
    append(textRaw ? static_cast<const void *>(pair.text.data())
                   : packedText_.data(),
           packedBytes(pair.text.size(), textRaw));
    ++pairs_;
}

void
StoreWriter::finish()
{
    fatal_if(finished_, "store writer for '{}' already finished",
             path_);
    flush();
    const std::uint64_t indexOffset = payloadOffset_ + payloadBytes_;
    checksum_.update(index_.data(), index_.size());
    // Bounded writes here too: one multi-MB write() lets the page cache
    // back the index with large folios, and every reader that maps the
    // store then faults in a whole folio per index touch (~1 MiB RSS).
    for (std::size_t at = 0; at < index_.size(); at += kWriteBufferBytes)
        out_.write(reinterpret_cast<const char *>(index_.data() + at),
                   static_cast<std::streamsize>(std::min(
                       kWriteBufferBytes, index_.size() - at)));
    // The header is hashed last, with its checksum field zero: its
    // counts are known only now.
    auto header = encodeHeader(provenance_, pairs_, payloadOffset_,
                               payloadBytes_, indexOffset, 0);
    checksum_.update(header.data(), header.size());
    putU64(header.data() + kChecksumOffset, checksum_.digest());
    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    out_.close();
    fatal_if(out_.fail(), "write error finishing store '{}'", path_);
    finished_ = true;
}

// ---------------------------------------------------------------------
// ReadStore

std::shared_ptr<const ReadStore>
ReadStore::open(const std::string &path,
                const StoreOpenOptions &options)
{
    std::shared_ptr<ReadStore> store(new ReadStore());
    store->path_ = path;
    store->fd_ = ::open(path.c_str(), O_RDONLY);
    fatal_if(store->fd_ < 0, "cannot open store '{}'", path);
    struct stat st;
    fatal_if(::fstat(store->fd_, &st) != 0,
             "cannot stat store '{}'", path);
    store->fileBytes_ = static_cast<std::uint64_t>(st.st_size);

    unsigned char fixed[kFixedHeaderBytes];
    fatal_if(store->fileBytes_ < kFixedHeaderBytes,
             "'{}' is not a read store (truncated header)", path);
    store->readBytes(0, fixed, kFixedHeaderBytes);
    fatal_if(std::memcmp(fixed, kRetiredStoreMagic.data(),
                         kRetiredStoreMagic.size()) == 0,
             "store '{}' is in the retired {} format, which this build "
             "does not read; rewrite it with `qz-datagen --store`",
             path, kRetiredStoreMagic);
    fatal_if(std::memcmp(fixed, kStoreMagic.data(),
                         kStoreMagic.size()) != 0,
             "'{}' is not a read store (bad magic)", path);
    const std::uint32_t version = getU32(fixed + 8);
    fatal_if(version != kStoreVersion,
             "store '{}' has version {}, this build reads version {}",
             path, version, kStoreVersion);
    store->pairCount_ = getU64(fixed + 16);
    store->payloadOffset_ = getU64(fixed + 24);
    store->payloadBytes_ = getU64(fixed + 32);
    store->indexOffset_ = getU64(fixed + 40);
    store->checksum_ = getU64(fixed + kChecksumOffset);
    store->provenance_.seed = getU64(fixed + 56);
    store->provenance_.scale =
        std::bit_cast<double>(getU64(fixed + 64));
    store->provenance_.errorRate =
        std::bit_cast<double>(getU64(fixed + 72));
    store->provenance_.readLength =
        static_cast<std::size_t>(getU64(fixed + 80));
    const std::uint32_t nameLen = getU32(fixed + 88);

    fatal_if(nameLen > kMaxNameBytes ||
                 kFixedHeaderBytes + nameLen > store->fileBytes_,
             "store '{}' header is corrupt (name length {})", path,
             nameLen);
    store->provenance_.name.resize(nameLen);
    if (nameLen > 0)
        store->readBytes(kFixedHeaderBytes,
                         store->provenance_.name.data(), nameLen);

    const std::uint64_t headerBytes =
        align8(kFixedHeaderBytes + nameLen);
    fatal_if(store->payloadOffset_ != headerBytes ||
                 store->payloadOffset_ + store->payloadBytes_ !=
                     store->indexOffset_ ||
                 store->indexOffset_ +
                         store->pairCount_ * kIndexEntryBytes !=
                     store->fileBytes_,
             "store '{}' is truncated or corrupt (layout mismatch)",
             path);

    if (!options.disableMmap && store->fileBytes_ > 0) {
        void *map = ::mmap(nullptr, store->fileBytes_, PROT_READ,
                           MAP_SHARED, store->fd_, 0);
        if (map != MAP_FAILED)
            store->map_ = static_cast<const unsigned char *>(map);
        // mmap failure is not an error: fall through to pread.
    }

    const FileIdentity identity{st.st_dev,        st.st_ino,
                                st.st_size,       toNs(st.st_mtim),
                                toNs(st.st_ctim), store->checksum_};
    if (options.verifyChecksum && !verifiedFiles().contains(identity)) {
        timespec start{};
        ::clock_gettime(CLOCK_REALTIME, &start);
        const std::uint64_t hash = store->contentChecksum();
        fatal_if(hash != store->checksum_,
                 "store '{}' failed its content checksum "
                 "(corrupted or torn write)",
                 path);
        verifiedFiles().add(identity, toNs(start));
    }
    return store;
}

ReadStore::~ReadStore()
{
    if (map_ != nullptr)
        ::munmap(const_cast<unsigned char *>(map_), fileBytes_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
ReadStore::readBytes(std::uint64_t offset, void *dst,
                     std::size_t bytes) const
{
    if (map_ != nullptr) {
        std::memcpy(dst, map_ + offset, bytes);
        return;
    }
    const ssize_t got =
        ::pread(fd_, dst, bytes, static_cast<off_t>(offset));
    fatal_if(got != static_cast<ssize_t>(bytes),
             "read error in store '{}' at offset {}", path_, offset);
}

std::uint64_t
ReadStore::contentChecksum() const
{
    // Stream with pread through one bounded buffer, so verification
    // never inflates RSS, even in mmap mode. Hash in write order: the
    // payload and index, then the header with its checksum field zero.
    Xxh64 hash;
    std::vector<unsigned char> chunk(kVerifyChunkBytes);
    const auto read = [&](std::uint64_t offset, std::size_t count) {
        const ssize_t got = ::pread(fd_, chunk.data(), count,
                                    static_cast<off_t>(offset));
        fatal_if(got != static_cast<ssize_t>(count),
                 "read error verifying store '{}'", path_);
    };
    for (std::uint64_t offset = payloadOffset_; offset < fileBytes_;
         offset += chunk.size()) {
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk.size(), fileBytes_ - offset));
        read(offset, count);
        hash.update(chunk.data(), count);
    }
    // open() checked payloadOffset_ against the name length, so the
    // header fits the chunk.
    read(0, payloadOffset_);
    putU64(chunk.data() + kChecksumOffset, 0);
    hash.update(chunk.data(), payloadOffset_);
    return hash.digest();
}

ReadStore::Entry
ReadStore::entryOf(std::size_t index) const
{
    panic_if_not(index < pairCount_,
                 "store pair index {} out of range (size {})", index,
                 pairCount_);
    unsigned char bytes[kIndexEntryBytes];
    readBytes(indexOffset_ + index * kIndexEntryBytes, bytes,
              kIndexEntryBytes);
    Entry entry;
    entry.offset = getU64(bytes);
    entry.patternBases = getU32(bytes + 8);
    entry.textBases = getU32(bytes + 12);
    entry.trueEdits = static_cast<std::int64_t>(getU64(bytes + 16));
    entry.flags = bytes[24];
    const std::uint64_t spanned =
        packedBytes(entry.patternBases,
                    (entry.flags & kFlagPatternRaw) != 0) +
        packedBytes(entry.textBases,
                    (entry.flags & kFlagTextRaw) != 0);
    fatal_if(entry.offset > payloadBytes_ ||
                 spanned > payloadBytes_ - entry.offset,
             "store '{}' index entry {} points outside the payload",
             path_, index);
    return entry;
}

void
ReadStore::decodeSequence(std::uint64_t payloadOffset,
                          std::size_t bases, bool raw,
                          AlphabetKind alphabet,
                          std::string &out) const
{
    out.resize(bases);
    if (raw) {
        readBytes(payloadOffset_ + payloadOffset, out.data(), bases);
        return;
    }
    if (bases == 0)
        return;
    static thread_local std::vector<unsigned char> packed;
    const std::size_t count = packedBytes(bases, false);
    const unsigned char *bytes;
    if (map_ != nullptr) {
        bytes = map_ + payloadOffset_ + payloadOffset;
    } else {
        packed.resize(count);
        readBytes(payloadOffset_ + payloadOffset, packed.data(),
                  count);
        bytes = packed.data();
    }
    const ByteDecoder &decoder =
        alphabet == AlphabetKind::Rna ? kRnaDecoder : kDnaDecoder;
    const std::size_t whole = bases / 4;
    for (std::size_t i = 0; i < whole; ++i)
        std::memcpy(out.data() + 4 * i, decoder.bases[bytes[i]], 4);
    if (bases % 4 != 0)
        std::memcpy(out.data() + 4 * whole, decoder.bases[bytes[whole]],
                    bases % 4);
}

void
ReadStore::decodePair(std::size_t index, SequencePair &out) const
{
    const Entry entry = entryOf(index);
    const bool patternRaw = (entry.flags & kFlagPatternRaw) != 0;
    const bool textRaw = (entry.flags & kFlagTextRaw) != 0;
    out.alphabet = alphabetFromCode(
        static_cast<std::uint8_t>(entry.flags >> kFlagAlphabetShift));
    out.trueEdits = entry.trueEdits;
    decodeSequence(entry.offset, entry.patternBases, patternRaw,
                   out.alphabet, out.pattern);
    decodeSequence(entry.offset +
                       packedBytes(entry.patternBases, patternRaw),
                   entry.textBases, textRaw, out.alphabet, out.text);
}

SequencePair
ReadStore::pair(std::size_t index) const
{
    SequencePair out;
    decodePair(index, out);
    return out;
}

std::uint64_t
ReadStore::payloadBeginOf(std::size_t index) const
{
    if (index >= pairCount_)
        return payloadOffset_ + payloadBytes_;
    return payloadOffset_ + entryOf(index).offset;
}

void
ReadStore::releasePairRange(std::size_t from, std::size_t to) const
{
    if (map_ == nullptr || to <= from)
        return;
    const std::uint64_t page =
        static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const auto release = [&](std::uint64_t begin, std::uint64_t end) {
        begin = (begin + page - 1) / page * page; // shrink inward
        end = end / page * page;
        if (begin < end)
            ::madvise(const_cast<unsigned char *>(map_) + begin,
                      end - begin, MADV_DONTNEED);
    };
    release(payloadBeginOf(from), payloadBeginOf(to));
    release(indexOffset_ + from * kIndexEntryBytes,
            indexOffset_ + to * kIndexEntryBytes);
}

// ---------------------------------------------------------------------
// StorePairSource

StorePairSource::StorePairSource(
    std::shared_ptr<const ReadStore> store, std::size_t from,
    std::size_t to)
    : store_(std::move(store))
{
    fatal_if(!store_, "StorePairSource over a null store");
    const std::size_t total = store_->size();
    from_ = std::min(from, total);
    to_ = std::min(std::max(to, from_), total);
    cursor_ = from_;
    releasedTo_ = from_;
    const StoreProvenance &provenance = store_->provenance();
    info_.name = provenance.name;
    info_.readLength = provenance.readLength;
    info_.errorRate = provenance.errorRate;
}

std::size_t
StorePairSource::next(PairBatch &batch)
{
    batch.clear();
    while (cursor_ < to_ && !batch.full()) {
        SequencePair pair;
        store_->decodePair(cursor_, pair);
        batch.pushOwned(std::move(pair));
        ++cursor_;
    }
    releaseBehindCursor();
    return batch.size();
}

void
StorePairSource::releaseBehindCursor()
{
    // Bound RSS on large sweeps: drop pages more than one release
    // window behind the cursor. The previous batch's pairs are
    // already copied out, so nothing re-reads them.
    constexpr std::uint64_t kWindowBytes = 16ull << 20;
    if (!store_->mapped() || cursor_ <= releasedTo_)
        return;
    const std::uint64_t behind = store_->payloadBeginOf(cursor_) -
                                 store_->payloadBeginOf(releasedTo_);
    if (behind < kWindowBytes)
        return;
    store_->releasePairRange(releasedTo_, cursor_);
    releasedTo_ = cursor_;
}

void
StorePairSource::rewind()
{
    cursor_ = from_;
    releasedTo_ = from_; // released pages fault back in on re-read
}

std::unique_ptr<PairSource>
StorePairSource::slice(std::size_t from, std::size_t to) const
{
    const std::size_t window = size();
    from = std::min(from, window);
    to = std::min(std::max(to, from), window);
    return std::make_unique<StorePairSource>(store_, from_ + from,
                                             from_ + to);
}

// ---------------------------------------------------------------------
// CLI targets and the per-process store cache

StoreTarget
parseStoreTarget(std::string_view target)
{
    StoreTarget parsed;
    parsed.path = std::string(target);
    const std::size_t colon = target.rfind(':');
    if (colon == std::string_view::npos)
        return parsed;
    const std::string_view suffix = target.substr(colon + 1);
    const std::size_t dash = suffix.find('-');
    if (dash == std::string_view::npos ||
        suffix.find('-', dash + 1) != std::string_view::npos ||
        suffix.find_first_not_of("0123456789-") !=
            std::string_view::npos)
        return parsed; // not a range suffix; ':' belongs to the path
    const auto parse = [&](std::string_view digits,
                           std::size_t fallback) {
        if (digits.empty())
            return fallback;
        std::size_t value = 0;
        for (const char c : digits) {
            fatal_if(value > (kStoreEnd - 9) / 10,
                     "store range bound '{}' is out of range",
                     std::string(digits));
            value = value * 10 + static_cast<std::size_t>(c - '0');
        }
        return value;
    };
    parsed.path = std::string(target.substr(0, colon));
    parsed.from = parse(suffix.substr(0, dash), 0);
    parsed.to = parse(suffix.substr(dash + 1), kStoreEnd);
    fatal_if(parsed.to < parsed.from,
             "store range {}-{} is backwards", parsed.from,
             parsed.to);
    return parsed;
}

std::unique_ptr<PairSource>
openStoreSource(const StoreTarget &target)
{
    auto store = openStoreShared(target.path);
    fatal_if(target.from > store->size(),
             "store range starts at pair {} but '{}' holds {} "
             "pair(s)",
             target.from, target.path, store->size());
    return std::make_unique<StorePairSource>(std::move(store),
                                             target.from, target.to);
}

std::shared_ptr<const ReadStore>
openStoreShared(const std::string &path)
{
    return ReadStore::open(path);
}

} // namespace quetzal::genomics
