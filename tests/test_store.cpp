/**
 * @file
 * Tests for the indexed on-disk read store (docs/STORE.md): 2-bit
 * pack/unpack round trips (with the raw escape for 'N' and protein),
 * header/checksum rejection of truncated or corrupted files, slice
 * boundary behavior, mmap-vs-pread equality, the tentpole safety
 * invariant — store-backed sweeps report byte-identically to in-RAM
 * sweeps, unsharded and through a 3-shard merge — and the
 * once-per-file-identity checksum: a reopened store is not hashed
 * again, while a rewritten or corrupted one always is. The QZSTORE2
 * codec runs in lockstep with verbatim copies of the QZSTORE1 one,
 * and XXH64 is checked against published known answers.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "common/logging.hpp"
#include "common/xxh64.hpp"
#include "genomics/datasets.hpp"
#include "genomics/encoding.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/store.hpp"

namespace quetzal {
namespace {

using genomics::AlphabetKind;
using genomics::decodeBase2Dna;
using genomics::decodeBase2Rna;
using genomics::encodeBase2;
using genomics::isValid;
using genomics::PairBatch;
using genomics::ReadStore;
using genomics::SequencePair;
using genomics::StorePairSource;
using genomics::StoreProvenance;
using genomics::StoreWriter;

/** Temp file path that removes itself. */
class ScopedPath
{
  public:
    explicit ScopedPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~ScopedPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** Hand-built pairs covering every encoding path. */
std::vector<SequencePair>
mixedPairs()
{
    std::vector<SequencePair> pairs;
    pairs.push_back({"ACGTACGTACGT", "ACGTACGAACGT",
                     AlphabetKind::Dna, 1});
    // Length not divisible by 4: the tail byte is partially filled.
    pairs.push_back({"ACGTA", "TGCAT", AlphabetKind::Dna, -1});
    // 'N' forces the raw 8-bit escape for that sequence only.
    pairs.push_back({"ACGTNACGT", "ACGTACGTA", AlphabetKind::Dna, 2});
    pairs.push_back({"ACGUACGU", "ACGUACGG", AlphabetKind::Rna, 1});
    // Protein never packs into 2 bits.
    pairs.push_back({"MKVLITGAGG", "MKVLITGAGA",
                     AlphabetKind::Protein, 1});
    // Empty-ish extremes (single base each side).
    pairs.push_back({"A", "T", AlphabetKind::Dna, 1});
    return pairs;
}

void
writeStore(const std::string &path,
           const std::vector<SequencePair> &pairs,
           StoreProvenance provenance = {})
{
    StoreWriter writer(path, std::move(provenance));
    for (const auto &pair : pairs)
        writer.add(pair);
    writer.finish();
}

/** Flip one byte at @p offset of the file at @p path. */
void
corruptByte(const std::string &path, std::uint64_t offset)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
}

TEST(Store, RoundTripsEveryEncodingPath)
{
    ScopedPath path("store_roundtrip.qzs");
    const auto pairs = mixedPairs();
    StoreProvenance provenance;
    provenance.name = "mixed";
    provenance.scale = 2.5;
    provenance.seed = 1234;
    provenance.readLength = 12;
    provenance.errorRate = 0.04;
    writeStore(path.str(), pairs, provenance);

    const auto store = ReadStore::open(path.str());
    ASSERT_EQ(store->size(), pairs.size());
    EXPECT_EQ(store->provenance().name, "mixed");
    EXPECT_EQ(store->provenance().scale, 2.5);
    EXPECT_EQ(store->provenance().seed, 1234u);
    EXPECT_EQ(store->provenance().readLength, 12u);
    EXPECT_EQ(store->provenance().errorRate, 0.04);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const SequencePair got = store->pair(i);
        EXPECT_EQ(got.pattern, pairs[i].pattern) << "pair " << i;
        EXPECT_EQ(got.text, pairs[i].text) << "pair " << i;
        EXPECT_EQ(got.alphabet, pairs[i].alphabet) << "pair " << i;
        EXPECT_EQ(got.trueEdits, pairs[i].trueEdits) << "pair " << i;
    }
}

TEST(Store, PreadFallbackDecodesIdentically)
{
    ScopedPath path("store_pread.qzs");
    const auto pairs = mixedPairs();
    writeStore(path.str(), pairs);

    genomics::StoreOpenOptions noMmap;
    noMmap.disableMmap = true;
    const auto viaPread = ReadStore::open(path.str(), noMmap);
    const auto viaMmap = ReadStore::open(path.str());
    EXPECT_FALSE(viaPread->mapped());
    ASSERT_EQ(viaPread->size(), viaMmap->size());
    EXPECT_EQ(viaPread->checksum(), viaMmap->checksum());
    for (std::size_t i = 0; i < viaPread->size(); ++i) {
        const SequencePair a = viaPread->pair(i);
        const SequencePair b = viaMmap->pair(i);
        EXPECT_EQ(a.pattern, b.pattern);
        EXPECT_EQ(a.text, b.text);
        EXPECT_EQ(a.trueEdits, b.trueEdits);
    }
}

TEST(Store, RejectsCorruptedPayload)
{
    ScopedPath path("store_corrupt.qzs");
    writeStore(path.str(), mixedPairs());
    // The header is ~100 bytes; byte 120 is payload territory.
    corruptByte(path.str(), 120);
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);
    // Skipping verification defers detection (decode still works on
    // the untouched pairs) — the option exists for huge stores.
    genomics::StoreOpenOptions lax;
    lax.verifyChecksum = false;
    EXPECT_NO_THROW(ReadStore::open(path.str(), lax));
}

TEST(Store, RejectsTruncation)
{
    ScopedPath path("store_truncated.qzs");
    writeStore(path.str(), mixedPairs());
    std::ifstream in(path.str(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path.str(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamoff>(bytes.size() - 16));
    out.close();
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);
}

TEST(Store, RejectsBadMagicAndUnfinishedWriter)
{
    ScopedPath path("store_magic.qzs");
    writeStore(path.str(), mixedPairs());
    corruptByte(path.str(), 0); // magic
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);

    // A writer that never finish()ed leaves the zeroed placeholder
    // header, which must be rejected like any other torn write.
    ScopedPath torn("store_torn.qzs");
    {
        StoreWriter writer(torn.str(), StoreProvenance{});
        writer.add({"ACGT", "ACGT", AlphabetKind::Dna, 0});
        // no finish()
    }
    EXPECT_THROW(ReadStore::open(torn.str()), FatalError);
}

TEST(Store, SliceBoundariesClampAndCompose)
{
    ScopedPath path("store_slice.qzs");
    const auto pairs = mixedPairs();
    writeStore(path.str(), pairs);
    const auto store = ReadStore::open(path.str());

    StorePairSource whole(store);
    ASSERT_EQ(whole.size(), pairs.size());

    // Past-the-end bounds clamp instead of throwing.
    const auto clamped = whole.slice(2, 1000);
    EXPECT_EQ(clamped->size(), pairs.size() - 2);

    // Empty slices yield no batches.
    const auto empty = whole.slice(3, 3);
    EXPECT_EQ(empty->size(), 0u);
    PairBatch batch;
    EXPECT_EQ(empty->next(batch), 0u);

    // slice() composes relative to the window: (2..end) then (1..2)
    // is global pair 3.
    const auto inner = clamped->slice(1, 2);
    ASSERT_EQ(inner->size(), 1u);
    ASSERT_GT(inner->next(batch), 0u);
    EXPECT_EQ(batch.views()[0].pattern, pairs[3].pattern);

    // Batch capacity never changes what is yielded, only the chunking.
    PairBatch tiny(1);
    auto cursor = whole.fork();
    std::vector<std::string> got;
    while (cursor->next(tiny) > 0)
        for (const auto &view : tiny.views())
            got.push_back(std::string(view.pattern));
    ASSERT_EQ(got.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(got[i], pairs[i].pattern);
}

TEST(Store, ParseStoreTargetForms)
{
    const auto plain = genomics::parseStoreTarget("reads.qzs");
    EXPECT_EQ(plain.path, "reads.qzs");
    EXPECT_EQ(plain.from, 0u);
    EXPECT_EQ(plain.to, genomics::kStoreEnd);

    const auto range = genomics::parseStoreTarget("reads.qzs:10-20");
    EXPECT_EQ(range.path, "reads.qzs");
    EXPECT_EQ(range.from, 10u);
    EXPECT_EQ(range.to, 20u);

    const auto open = genomics::parseStoreTarget("reads.qzs:10-");
    EXPECT_EQ(open.from, 10u);
    EXPECT_EQ(open.to, genomics::kStoreEnd);

    const auto head = genomics::parseStoreTarget("reads.qzs:-20");
    EXPECT_EQ(head.from, 0u);
    EXPECT_EQ(head.to, 20u);

    // A ':' that is not followed by a digits-dash suffix is path text.
    const auto colon = genomics::parseStoreTarget("dir:name/reads.qzs");
    EXPECT_EQ(colon.path, "dir:name/reads.qzs");

    EXPECT_THROW(genomics::parseStoreTarget("reads.qzs:20-10"),
                 FatalError);
}

TEST(Store, GeneratorMatchesMakeDataset)
{
    const genomics::PairDataset dataset =
        genomics::makeDataset("100bp_1", 0.1);
    const genomics::PairDataset streamed =
        genomics::GeneratorPairSource("100bp_1", 0.1).materialize();
    ASSERT_EQ(streamed.pairs.size(), dataset.pairs.size());
    for (std::size_t i = 0; i < dataset.pairs.size(); ++i) {
        EXPECT_EQ(streamed.pairs[i].pattern, dataset.pairs[i].pattern);
        EXPECT_EQ(streamed.pairs[i].text, dataset.pairs[i].text);
        EXPECT_EQ(streamed.pairs[i].trueEdits,
                  dataset.pairs[i].trueEdits);
    }
    EXPECT_EQ(streamed.name, dataset.name);
    EXPECT_EQ(streamed.readLength, dataset.readLength);
    EXPECT_EQ(streamed.errorRate, dataset.errorRate);
}

/** Write the 100bp_1@0.1 catalog dataset to @p path as a store. */
std::shared_ptr<const ReadStore>
catalogStore(const std::string &path)
{
    genomics::GeneratorPairSource source("100bp_1", 0.1);
    StoreProvenance provenance;
    provenance.name = source.info().name;
    provenance.scale = source.scale();
    provenance.seed = source.seed();
    provenance.readLength = source.info().readLength;
    provenance.errorRate = source.info().errorRate;
    StoreWriter writer(path, provenance);
    PairBatch batch;
    while (source.next(batch) > 0)
        for (const auto &view : batch.views())
            writer.add({std::string(view.pattern),
                        std::string(view.text), view.alphabet,
                        view.trueEdits});
    writer.finish();
    return ReadStore::open(path);
}

/** The two cells every report test sweeps. */
void
addCells(algos::BatchRunner &runner,
         const std::shared_ptr<const genomics::PairSource> &source)
{
    algos::RunOptions wfa;
    wfa.variant = algos::Variant::Vec;
    runner.add(algos::workloadByName("WFA"), source, wfa);
    algos::RunOptions ss;
    ss.variant = algos::Variant::Base;
    runner.add(algos::workloadByName("SS"), source, ss);
}

TEST(Store, ReportByteIdenticalToInRamRun)
{
    ScopedPath path("store_report.qzs");
    const auto store = catalogStore(path.str());

    const auto dataset = std::make_shared<const genomics::PairDataset>(
        genomics::makeDataset("100bp_1", 0.1));

    algos::BatchRunner ram(1);
    addCells(ram,
             std::make_shared<genomics::DatasetPairSource>(dataset));
    const std::string ramJson = algos::toJson(algos::makeBenchReport(
        "store-vs-ram", 0.1, 1, ram.run()));

    algos::BatchRunner disk(1);
    addCells(disk, std::make_shared<StorePairSource>(store));
    const std::string diskJson = algos::toJson(algos::makeBenchReport(
        "store-vs-ram", 0.1, 1, disk.run()));

    EXPECT_EQ(diskJson, ramJson);
}

TEST(Store, ShardedStoreRangesMergeByteIdentically)
{
    ScopedPath path("store_shards.qzs");
    const auto store = catalogStore(path.str());
    const std::size_t total = store->size();
    ASSERT_GE(total, 6u);

    // Unsharded reference over the whole store. Six cells: three
    // contiguous ranges x two workloads, submitted range-major so the
    // shard engine's round-robin lands each range pair on one shard.
    auto addRangeCells = [&](algos::BatchRunner &runner) {
        const std::size_t third = total / 3;
        for (const auto &[from, to] :
             std::vector<std::pair<std::size_t, std::size_t>>{
                 {0, third}, {third, 2 * third}, {2 * third, total}}) {
            algos::RunOptions options;
            options.variant = algos::Variant::Vec;
            runner.add(
                algos::workloadByName("WFA"),
                std::make_shared<StorePairSource>(store, from, to),
                options);
        }
    };

    algos::BatchRunner whole(1);
    addRangeCells(whole);
    const std::string wholeJson = algos::toJson(algos::makeBenchReport(
        "store-shards", 0.1, 1, whole.run()));

    std::vector<algos::BenchReport> shardReports;
    for (unsigned k = 1; k <= 3; ++k) {
        algos::BatchRunner shard(1);
        shard.policy().shard = algos::ShardSpec{k, 3};
        addRangeCells(shard);
        shardReports.push_back(algos::makeBenchReport(
            "store-shards", 0.1, 1, shard.run()));
    }
    const std::string mergedJson = algos::toJson(
        algos::mergeShardReports(std::move(shardReports)));

    EXPECT_EQ(mergedJson, wholeJson);
}

TEST(Store, CellIdentityMatchesAcrossIntakeModes)
{
    ScopedPath path("store_hash.qzs");
    const auto store = catalogStore(path.str());
    const genomics::PairDataset dataset =
        genomics::makeDataset("100bp_1", 0.1);

    algos::RunOptions options;
    options.variant = algos::Variant::QzC;
    options.system = sim::SystemParams::withQuetzal(8);

    const StorePairSource viaStore(store);
    const genomics::DatasetPairSource viaRam(dataset);
    EXPECT_EQ(algos::cellKey("WFA", viaStore, options),
              algos::cellKey("WFA", dataset, options));
    EXPECT_EQ(algos::cellHash("WFA", viaStore, options),
              algos::cellHash("WFA", dataset, options));
    EXPECT_EQ(algos::cellHash("WFA", viaRam, options),
              algos::cellHash("WFA", dataset, options));
}

/** Bytes this process has read through read()/pread() so far. */
std::optional<std::uint64_t>
bytesRead()
{
    std::ifstream io("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (io >> key >> value)
        if (key == "rchar:")
            return value;
    return std::nullopt;
}

/** Every pair of @p store, decoded. */
std::vector<SequencePair>
decodeAll(const ReadStore &store)
{
    std::vector<SequencePair> pairs;
    for (std::size_t i = 0; i < store.size(); ++i)
        pairs.push_back(store.pair(i));
    return pairs;
}

void
expectSamePairs(const std::vector<SequencePair> &got,
                const std::vector<SequencePair> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].pattern, want[i].pattern) << "pair " << i;
        EXPECT_EQ(got[i].text, want[i].text) << "pair " << i;
        EXPECT_EQ(got[i].trueEdits, want[i].trueEdits) << "pair " << i;
    }
}

/** mixedPairs() repeated until the store spans tens of KiB. */
std::vector<SequencePair>
manyPairs()
{
    std::vector<SequencePair> pairs;
    for (int copy = 0; copy < 300; ++copy)
        for (const auto &pair : mixedPairs())
            pairs.push_back(pair);
    return pairs;
}

/**
 * @p pairs with every DNA base shifted A->C->G->T->A ('N', RNA and
 * protein untouched), so the store keeps its byte size.
 */
std::vector<SequencePair>
shiftedBases(std::vector<SequencePair> pairs)
{
    const auto shift = [](std::string &seq) {
        for (char &c : seq)
            c = c == 'A' ? 'C' : c == 'C' ? 'G' : c == 'G' ? 'T'
                : c == 'T' ? 'A' : c;
    };
    for (auto &pair : pairs) {
        if (pair.alphabet != AlphabetKind::Dna)
            continue;
        shift(pair.pattern);
        shift(pair.text);
    }
    return pairs;
}

/**
 * Stores whose ctime is over a second old when the tests open them,
 * so a verifying open may remember their identity: otherwise the
 * racy-timestamp rule alone would force every reopen to hash, and
 * these tests could not tell a correct memo from a wrong one.
 */
class StoreReopen : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        for (const char *name : {"twice", "rewrite", "corrupt"})
            writeStore(path(name), manyPairs());
        writeStore(path("lax"), manyPairs());
        corruptByte(path("lax"), 120);
        std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    }

    static void
    TearDownTestSuite()
    {
        for (const char *name : {"twice", "rewrite", "corrupt", "lax"})
            std::remove(path(name).c_str());
    }

    static std::string
    path(const std::string &name)
    {
        return ::testing::TempDir() + "store_reopen_" + name + ".qzs";
    }
};

TEST_F(StoreReopen, UnchangedStoreOpenedTwiceDecodesIdentically)
{
    const std::string twice = path("twice");
    const auto before = bytesRead();
    const auto first = ReadStore::open(twice);
    const auto between = bytesRead();
    const auto second = ReadStore::open(twice);
    const auto after = bytesRead();

    EXPECT_EQ(second->checksum(), first->checksum());
    expectSamePairs(decodeAll(*second), decodeAll(*first));
    expectSamePairs(decodeAll(*second), manyPairs());

    if (!before || !between || !after)
        GTEST_SKIP() << "no /proc/self/io: cannot see the hash reads";
    const std::uint64_t fileBytes = std::filesystem::file_size(twice);
    ASSERT_GT(fileBytes, 16u * 1024);
    // The first open hashes the whole file through pread(); the
    // second reads only the header.
    EXPECT_GE(*between - *before, fileBytes / 2);
    EXPECT_LT(*after - *between, 4096u);
}

TEST_F(StoreReopen, RewriteAtSamePathDecodesTheNewPairs)
{
    const std::string rewrite = path("rewrite");
    const std::uint64_t oldBytes = std::filesystem::file_size(rewrite);
    expectSamePairs(decodeAll(*ReadStore::open(rewrite)), manyPairs());

    const auto newPairs = shiftedBases(manyPairs());
    ASSERT_NE(newPairs.front().pattern, manyPairs().front().pattern);
    writeStore(rewrite, newPairs);
    ASSERT_EQ(std::filesystem::file_size(rewrite), oldBytes);
    expectSamePairs(decodeAll(*ReadStore::open(rewrite)), newPairs);
}

TEST_F(StoreReopen, VerifiedStoreCorruptedInPlaceIsRejected)
{
    const std::string corrupt = path("corrupt");
    EXPECT_NO_THROW(ReadStore::open(corrupt));
    corruptByte(corrupt, 120);
    EXPECT_THROW(ReadStore::open(corrupt), FatalError);
}

TEST_F(StoreReopen, UnverifiedOpenLeavesCorruptionDetectable)
{
    genomics::StoreOpenOptions lax;
    lax.verifyChecksum = false;
    EXPECT_NO_THROW(ReadStore::open(path("lax"), lax));
    EXPECT_THROW(ReadStore::open(path("lax")), FatalError);
}

TEST(Store, FreshStoreIsHashedOnEveryOpen)
{
    // A file changed under ~1 s before its hash could be rewritten in
    // the same timestamp tick and keep its identity, so it is not
    // remembered: each open hashes it again, and corruption landing
    // right after a verifying open is caught.
    ScopedPath path("store_fresh.qzs");
    writeStore(path.str(), manyPairs());
    EXPECT_NO_THROW(ReadStore::open(path.str()));
    const auto before = bytesRead();
    EXPECT_NO_THROW(ReadStore::open(path.str()));
    const auto after = bytesRead();
    corruptByte(path.str(), 120);
    EXPECT_THROW(ReadStore::open(path.str()), FatalError);

    if (!before || !after)
        GTEST_SKIP() << "no /proc/self/io: cannot see the hash reads";
    EXPECT_GE(*after - *before,
              std::filesystem::file_size(path.str()) / 2);
}

/** Every byte of the file at @p path. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** The little-endian u64 at @p offset of @p bytes. */
std::uint64_t
le64(const std::string &bytes, std::size_t offset)
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < 8; ++i)
        value |= std::uint64_t{static_cast<unsigned char>(
                     bytes[offset + i])}
                 << (8 * i);
    return value;
}

std::uint64_t
xxh64(std::string_view bytes)
{
    Xxh64 hash;
    hash.update(bytes.data(), bytes.size());
    return hash.digest();
}

TEST(Xxh64, KnownAnswers)
{
    EXPECT_EQ(xxh64(""), 0xef46db3751d8e999ULL);
    EXPECT_EQ(xxh64("a"), 0xd24ec4f1a98c6e5bULL);
    EXPECT_EQ(xxh64("abc"), 0x44bc2cf5ad770999ULL);

    // xxhsum's sanity buffer and vectors: 14 bytes reach the 8-byte
    // tail step and 222 bytes the 32-byte stripes, which the short
    // strings above never do.
    std::string buffer(222, '\0');
    std::uint64_t generator = 2654435761ULL;
    for (char &byte : buffer) {
        byte = static_cast<char>(generator >> 56);
        generator *= 11400714785074694797ULL;
    }
    EXPECT_EQ(xxh64(std::string_view(buffer).substr(0, 14)),
              0x8282dcc4994e35c8ULL);
    EXPECT_EQ(xxh64(buffer), 0xb641ae8cb691c174ULL);
}

TEST(Xxh64, DigestDoesNotDependOnHowTheInputIsSplit)
{
    std::mt19937_64 rng(17);
    std::string input(1000, '\0');
    for (char &byte : input)
        byte = static_cast<char>(rng());
    for (const std::size_t length : {0, 1, 7, 31, 32, 33, 64, 95, 1000}) {
        const std::string_view whole =
            std::string_view(input).substr(0, length);
        const std::uint64_t want = xxh64(whole);
        for (int trial = 0; trial < 20; ++trial) {
            Xxh64 hash;
            std::size_t at = 0;
            while (at < length) {
                const std::size_t chunk =
                    std::min<std::size_t>(length - at, rng() % 70);
                hash.update(whole.data() + at, chunk);
                at += chunk;
            }
            EXPECT_EQ(hash.digest(), want) << "length " << length;
        }
    }
}

// Verbatim copies of the QZSTORE1 codec (packs2bit, the packing loop of
// StoreWriter::appendSequence, the unpacking loop of decodeSequence)
// and of the per-character check behind validatePair.

bool
v1Packs2bit(std::string_view seq, AlphabetKind kind)
{
    if (kind == AlphabetKind::Protein)
        return false;
    for (const char c : seq) {
        const char back = kind == AlphabetKind::Rna
                              ? decodeBase2Rna(encodeBase2(c))
                              : decodeBase2Dna(encodeBase2(c));
        if (back != c)
            return false;
    }
    return true;
}

void
v1AppendSequence(std::string &payload, std::string_view seq, bool raw)
{
    if (raw) {
        payload += seq;
        return;
    }
    std::vector<unsigned char> packed((seq.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < seq.size(); ++i)
        packed[i / 4] = static_cast<unsigned char>(
            packed[i / 4] |
            (encodeBase2(seq[i]) << (2 * (i % 4))));
    payload.append(packed.begin(), packed.end());
}

std::string
v1Decode(const std::string &payload, std::size_t offset, std::size_t bases,
         bool raw, AlphabetKind alphabet)
{
    if (raw)
        return payload.substr(offset, bases);
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(payload.data() + offset);
    std::string out(bases, '\0');
    const bool rna = alphabet == AlphabetKind::Rna;
    for (std::size_t i = 0; i < bases; ++i) {
        const std::uint8_t code = static_cast<std::uint8_t>(
            (bytes[i / 4] >> (2 * (i % 4))) & 0x3u);
        out[i] = rna ? decodeBase2Rna(code) : decodeBase2Dna(code);
    }
    return out;
}

std::size_t
v1FirstInvalid(std::string_view seq, AlphabetKind kind)
{
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const char c = seq[i];
        if (isValid(kind, c))
            continue;
        if (c == 'N' && kind != AlphabetKind::Protein)
            continue;
        return i;
    }
    return std::string_view::npos;
}

/**
 * The parts of the error QZSTORE1's validatePair raised for pair
 * @p index (its index among the accepted pairs), or none.
 */
std::optional<std::vector<std::string>>
v1Error(const SequencePair &pair, std::size_t index)
{
    for (const auto &[seq, side] :
         {std::pair{std::string_view(pair.pattern), "pattern"},
          std::pair{std::string_view(pair.text), "text"}}) {
        if (seq.empty())
            return std::vector<std::string>{
                qformat("pair {} has an empty {}", index, side)};
        const std::size_t bad = v1FirstInvalid(seq, pair.alphabet);
        if (bad != std::string_view::npos)
            return std::vector<std::string>{
                qformat("pair {} {} has invalid", index, side),
                qformat("at position {} ", bad)};
    }
    return std::nullopt;
}

/**
 * A random pair of length 0-300 per side: letters of its alphabet,
 * with some sides carrying an 'N', a lowercase letter, a letter of
 * another alphabet or a 0x00/0x80/0xFF byte.
 */
SequencePair
randomPair(std::mt19937_64 &rng)
{
    constexpr AlphabetKind kKinds[] = {AlphabetKind::Dna, AlphabetKind::Rna,
                                       AlphabetKind::Protein};
    constexpr char kOdd[] = {'N', 'N', 'a', 'c', 'g', 't', 'u', 'n',
                             'U', 'T', 'X', '\x00', '\x80', '\xff'};
    SequencePair pair;
    pair.alphabet = kKinds[rng() % 3];
    pair.trueEdits = static_cast<std::int64_t>(rng() % 20) - 1;
    const std::string_view letters = genomics::letters(pair.alphabet);
    for (std::string *side : {&pair.pattern, &pair.text}) {
        const std::size_t length = rng() % 30 == 0 ? 0 : rng() % 301;
        side->resize(length);
        for (char &c : *side)
            c = letters[rng() % letters.size()];
        for (unsigned odd = rng() % 4; odd < 2 && length > 0; ++odd)
            (*side)[rng() % length] = kOdd[rng() % sizeof kOdd];
    }
    return pair;
}

TEST(StoreCodec, MatchesTheV1CodecInLockstep)
{
    ScopedPath path("store_lockstep.qzs");
    std::mt19937_64 rng(2024);
    StoreWriter writer(path.str(), StoreProvenance{});
    std::vector<SequencePair> accepted;
    std::vector<std::uint8_t> rawFlags;
    std::string payload;
    std::size_t rejected = 0;
    for (int n = 0; n < 4000; ++n) {
        const SequencePair pair = randomPair(rng);
        const auto expected = v1Error(pair, accepted.size());
        try {
            writer.add(pair);
        } catch (const FatalError &error) {
            ASSERT_TRUE(expected) << "v1 accepted pair " << n << ": "
                                  << error.what();
            for (const std::string &part : *expected)
                EXPECT_NE(std::string(error.what()).find(part),
                          std::string::npos)
                    << error.what() << "\nwants: " << part;
            ++rejected;
            continue;
        }
        ASSERT_FALSE(expected) << "v1 rejected pair " << n << " with "
                               << expected->front();
        const bool patternRaw = !v1Packs2bit(pair.pattern, pair.alphabet);
        const bool textRaw = !v1Packs2bit(pair.text, pair.alphabet);
        rawFlags.push_back(static_cast<std::uint8_t>(
            (patternRaw ? 1 : 0) | (textRaw ? 2 : 0)));
        v1AppendSequence(payload, pair.pattern, patternRaw);
        v1AppendSequence(payload, pair.text, textRaw);
        accepted.push_back(pair);
    }
    writer.finish();
    // Both outcomes, and both encodings, are well covered.
    EXPECT_GT(rejected, 1000u);
    ASSERT_GT(accepted.size(), 1000u);
    EXPECT_GT(std::count(rawFlags.begin(), rawFlags.end(), 0), 200);
    EXPECT_GT(std::count(rawFlags.begin(), rawFlags.end(), 3), 200);

    const std::string file = fileBytes(path.str());
    const std::uint64_t payloadOffset = le64(file, 24);
    const std::uint64_t indexOffset = le64(file, 40);
    EXPECT_TRUE(file.compare(payloadOffset, indexOffset - payloadOffset,
                             payload) == 0)
        << "payload bytes differ from QZSTORE1's";
    ASSERT_EQ(file.size() - indexOffset, 32 * accepted.size());

    const auto store = ReadStore::open(path.str());
    ASSERT_EQ(store->size(), accepted.size());
    for (std::size_t i = 0; i < accepted.size(); ++i) {
        const std::size_t entry = indexOffset + 32 * i;
        EXPECT_EQ(file[entry + 24] & 0x3, rawFlags[i]) << "pair " << i;
        const std::uint64_t offset = le64(file, entry);
        const bool patternRaw = (rawFlags[i] & 1) != 0;
        const SequencePair &want = accepted[i];
        const SequencePair got = store->pair(i);
        const std::string v1Pattern =
            v1Decode(payload, offset, want.pattern.size(), patternRaw,
                     want.alphabet);
        const std::string v1Text = v1Decode(
            payload,
            offset + (patternRaw ? want.pattern.size()
                                 : (want.pattern.size() + 3) / 4),
            want.text.size(), (rawFlags[i] & 2) != 0, want.alphabet);
        EXPECT_EQ(got.pattern, v1Pattern) << "pair " << i;
        EXPECT_EQ(got.text, v1Text) << "pair " << i;
        EXPECT_EQ(got.pattern, want.pattern) << "pair " << i;
        EXPECT_EQ(got.text, want.text) << "pair " << i;
        EXPECT_EQ(got.alphabet, want.alphabet) << "pair " << i;
        EXPECT_EQ(got.trueEdits, want.trueEdits) << "pair " << i;
    }
}

TEST(Store, ChecksumCoversTheHeader)
{
    StoreProvenance provenance;
    provenance.name = "provenance";
    provenance.seed = 77;
    provenance.scale = 0.5;
    // Offsets: seed, scale, error rate, read length, the name.
    for (const std::uint64_t offset : {56, 64, 72, 80, 92}) {
        ScopedPath path("store_header.qzs");
        writeStore(path.str(), mixedPairs(), provenance);
        EXPECT_NO_THROW(ReadStore::open(path.str()));
        corruptByte(path.str(), offset);
        try {
            ReadStore::open(path.str());
            ADD_FAILURE() << "flipped header byte " << offset
                          << " was accepted";
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what()).find("checksum"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(Store, RetiredV1FormatIsOneFatalLine)
{
    ScopedPath path("store_v1.qzs");
    writeStore(path.str(), mixedPairs());
    {
        std::fstream file(path.str(), std::ios::in | std::ios::out |
                                          std::ios::binary);
        file.write("QZSTORE1\x01\0\0\0", 12);
    }
    try {
        ReadStore::open(path.str());
        FAIL() << "a QZSTORE1 header was accepted";
    } catch (const FatalError &error) {
        const std::string message = error.what();
        EXPECT_EQ(message.rfind("fatal: ", 0), 0u) << message;
        EXPECT_EQ(message.find('\n'), std::string::npos) << message;
        EXPECT_NE(message.find("QZSTORE1"), std::string::npos) << message;
        EXPECT_NE(message.find("qz-datagen --store"), std::string::npos)
            << message;
    }
}

} // namespace
} // namespace quetzal
