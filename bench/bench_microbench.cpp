/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate itself:
 * host-side cost of the hardware models (QBUFFER reads, count ALU,
 * cache probes, pipeline issue) so regressions in simulation speed
 * are visible.
 */
#include <benchmark/benchmark.h>

#include "../tools/cli_common.hpp"
#include "genomics/encoding.hpp"
#include "genomics/readsim.hpp"
#include "quetzal/countalu.hpp"
#include "quetzal/qbuffer.hpp"
#include "sim/context.hpp"

namespace {

using namespace quetzal;

void
BM_CountAlu(benchmark::State &state)
{
    const std::uint64_t a = 0x123456789ABCDEF0ull;
    const std::uint64_t b = 0x123456789ABCDEF3ull;
    for (auto _ : state) {
        benchmark::DoNotOptimize(accel::CountAlu::count(
            a, b, genomics::ElementSize::Bits2));
    }
}
BENCHMARK(BM_CountAlu);

void
BM_QBufferWindowRead(benchmark::State &state)
{
    sim::QuetzalParams params;
    params.present = true;
    accel::QBuffer buf(params);
    for (std::size_t w = 0; w < buf.words(); ++w)
        buf.writeWord(w, w * 0x9E3779B97F4A7C15ull);
    std::size_t idx = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(buf.readWindow64(
            idx, genomics::ElementSize::Bits2));
        idx = (idx + 37) % 30000;
    }
}
BENCHMARK(BM_QBufferWindowRead);

void
BM_CacheProbe(benchmark::State &state)
{
    sim::Cache cache("bench", sim::CacheParams{});
    sim::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 256;
    }
}
BENCHMARK(BM_CacheProbe);

void
BM_PipelineIssue(benchmark::State &state)
{
    sim::SimContext ctx;
    sim::Tag chain{};
    for (auto _ : state) {
        chain = ctx.pipeline().executeOp(sim::OpClass::VecAlu,
                                         {chain});
        benchmark::DoNotOptimize(chain.ready);
    }
}
BENCHMARK(BM_PipelineIssue);

void
BM_Pack2bit(benchmark::State &state)
{
    genomics::ReadSimConfig config;
    config.readLength = 1024;
    genomics::ReadSimulator sim(config);
    const std::string seq = sim.randomSequence(1024);
    for (auto _ : state)
        benchmark::DoNotOptimize(genomics::pack2bit(seq));
}
BENCHMARK(BM_Pack2bit);

} // namespace

/** Google Benchmark parses its own flags; the bench table is not used. */
int
main(int argc, char **argv)
{
    try {
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
    } catch (const std::exception &error) {
        return quetzal::cli::reportError(error);
    }
}
