/**
 * @file
 * Unit tests for the common utilities: bit manipulation, deterministic
 * RNG, logging/error policy, formatting, stats, and table rendering.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "common/bitutil.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace quetzal {
namespace {

TEST(BitUtil, CountTrailingOnes)
{
    EXPECT_EQ(countTrailingOnes(0x0), 0);
    EXPECT_EQ(countTrailingOnes(0x1), 1);
    EXPECT_EQ(countTrailingOnes(0xFF), 8);
    EXPECT_EQ(countTrailingOnes(~std::uint64_t{0}), 64);
    EXPECT_EQ(countTrailingOnes(0b1011), 2);
}

TEST(BitUtil, CountTrailingZeros)
{
    EXPECT_EQ(countTrailingZeros(0x1), 0);
    EXPECT_EQ(countTrailingZeros(0x8), 3);
    EXPECT_EQ(countTrailingZeros(0x0), 64);
}

TEST(BitUtil, BitsExtractsFields)
{
    EXPECT_EQ(bits(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(bits(0xABCD, 4, 4), 0xCu);
    EXPECT_EQ(bits(0xABCD, 8, 8), 0xABu);
    EXPECT_EQ(bits(~std::uint64_t{0}, 0, 64), ~std::uint64_t{0});
    EXPECT_EQ(bits(0xF0, 4, 0), 0u);
}

TEST(BitUtil, InsertBitsRoundTrips)
{
    std::uint64_t word = 0;
    word = insertBits(word, 4, 4, 0xA);
    EXPECT_EQ(word, 0xA0u);
    word = insertBits(word, 0, 4, 0xB);
    EXPECT_EQ(word, 0xABu);
    // Overwrite
    word = insertBits(word, 4, 4, 0x1);
    EXPECT_EQ(word, 0x1Bu);
}

TEST(BitUtil, InsertBitsMasksOversizedField)
{
    const std::uint64_t word = insertBits(0, 0, 2, 0xFF);
    EXPECT_EQ(word, 0x3u);
}

TEST(BitUtil, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(12));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
    EXPECT_EQ(divCeil(9, 4), 3u);
    EXPECT_EQ(divCeil(8, 4), 2u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Format, SubstitutesSequentially)
{
    EXPECT_EQ(qformat("a={} b={}", 1, "x"), "a=1 b=x");
    EXPECT_EQ(qformat("no args"), "no args");
    EXPECT_EQ(qformat("{} extra {}", 5), "5 extra {}");
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom {}", 1), PanicError);
    EXPECT_THROW(panic_if_not(false, "bad"), PanicError);
    EXPECT_NO_THROW(panic_if_not(true, "fine"));
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error {}", "x"), FatalError);
    EXPECT_THROW(fatal_if(true, "bad"), FatalError);
    EXPECT_NO_THROW(fatal_if(false, "fine"));
}

TEST(Logging, ErrorsPrintNothingThemselves)
{
    // The catcher prints or records the message, so it reaches the
    // user once; fatal()/panic() writing to stderr too doubled it.
    testing::internal::CaptureStderr();
    try {
        fatal("user error {}", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: user error 7");
    }
    try {
        panic("bug {}", 8);
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: bug 8");
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Stats, CountersAccumulateAndReset)
{
    StatGroup group("test");
    Stat &s = group.stat("hits", "demo");
    ++s;
    s += 4;
    EXPECT_EQ(group.get("hits").value(), 5u);
    group.resetAll();
    EXPECT_EQ(group.get("hits").value(), 0u);
}

TEST(Stats, UnknownStatPanics)
{
    StatGroup group("test");
    EXPECT_THROW(group.get("nope"), PanicError);
    EXPECT_FALSE(group.has("nope"));
}

TEST(Stats, DumpIsStableOrdered)
{
    StatGroup group("test");
    group.stat("b") += 2;
    group.stat("a") += 1;
    const auto dump = group.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "b");
}

TEST(Stats, LaterDescriptionWins)
{
    StatGroup group("test");
    // Regression: a desc-less first registration used to pin the
    // fallback description forever, silently dropping the real one.
    group.stat("hits") += 1;
    EXPECT_EQ(group.get("hits").description(), "hits");
    group.stat("hits", "cache hit count") += 1;
    EXPECT_EQ(group.get("hits").description(), "cache hit count");
    EXPECT_EQ(group.get("hits").value(), 2u);
    // A later desc-less registration must not erase it again.
    group.stat("hits") += 1;
    EXPECT_EQ(group.get("hits").description(), "cache hit count");
}

TEST(Stats, MergeAccumulatesPerWorkerGroups)
{
    StatGroup total("total");
    total.stat("hits", "hit count") += 3;
    total.stat("misses") += 1;

    StatGroup worker("worker0");
    worker.stat("hits") += 4;
    worker.stat("evictions", "lines evicted") += 2;

    total.merge(worker);
    EXPECT_EQ(total.get("hits").value(), 7u);
    EXPECT_EQ(total.get("hits").description(), "hit count");
    EXPECT_EQ(total.get("misses").value(), 1u);
    EXPECT_EQ(total.get("evictions").value(), 2u);
    EXPECT_EQ(total.get("evictions").description(), "lines evicted");
    // merge() leaves the source untouched.
    EXPECT_EQ(worker.get("hits").value(), 4u);
}

TEST(Stats, TotalSumsAllCounters)
{
    StatGroup group("test");
    EXPECT_EQ(group.total(), 0u);
    group.stat("a") += 5;
    group.stat("b") += 7;
    EXPECT_EQ(group.total(), 12u);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::num(5.0, 1), "5.0");
}

TEST(Table, NumRendersNonFiniteAsNa)
{
    EXPECT_EQ(TextTable::num(std::numeric_limits<double>::quiet_NaN()),
              "n/a");
    EXPECT_EQ(TextTable::num(std::numeric_limits<double>::infinity()),
              "n/a");
    EXPECT_EQ(TextTable::num(-std::numeric_limits<double>::infinity()),
              "n/a");
}

TEST(Json, RawValueSplicesPreserializedJson)
{
    JsonWriter inner;
    inner.beginObject().field("x", std::uint64_t{1}).endObject();
    JsonWriter json;
    json.beginArray()
        .rawValue(inner.str())
        .rawValue("{\"y\":2}")
        .endArray();
    EXPECT_EQ(json.str(), "[{\"x\":1},{\"y\":2}]");
}

TEST(Json, ObjectsArraysAndEscaping)
{
    JsonWriter json;
    json.beginObject()
        .field("name", "line1\nline2 \"q\"")
        .field("count", std::uint64_t{42})
        .field("ratio", 1.5)
        .field("ok", true);
    json.beginArray("items").value("a").value(2.0).endArray();
    json.beginObject("nested").field("x", std::int64_t{-3}).endObject();
    json.endObject();
    const std::string out = json.str();
    EXPECT_NE(out.find("\"name\":\"line1\\nline2 \\\"q\\\"\""),
              std::string::npos);
    EXPECT_NE(out.find("\"items\":[\"a\",2]"), std::string::npos);
    EXPECT_NE(out.find("\"nested\":{\"x\":-3}"), std::string::npos);
}

TEST(Json, UnbalancedScopesPanic)
{
    JsonWriter json;
    json.beginObject();
    EXPECT_THROW(json.str(), PanicError);
    EXPECT_THROW(json.endArray(), PanicError);
}

} // namespace
} // namespace quetzal
