/**
 * @file
 * Host-SIMD backend resolution: the QZ_HOST_SIMD environment variable
 * (auto | scalar), then CPUID. Resolved once per process (first
 * hostSimd() call) so the facade pays a single indirection per
 * kernel, never a re-check.
 */
#include "isa/hostsimd.hpp"

#include "common/format.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace quetzal::isa {

/** hostsimd_avx512.cpp; linked only under QZ_HOSTSIMD_HAVE_AVX512. */
const HostSimdOps &hostSimdAvx512Table();

namespace {

bool
cpuHasAvx512()
{
#if defined(QZ_HOSTSIMD_HAVE_AVX512)
    // Every feature the AVX-512 TU's intrinsics require.
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512cd") &&
           __builtin_cpu_supports("avx512vpopcntdq");
#else
    return false;
#endif
}

/**
 * True when QZ_HOST_SIMD forces the scalar table. Unset or empty
 * means auto. Any other value is a configuration error for the whole
 * process, not for one cell or request: the table is shared by every
 * thread, and a throw here would surface once per caller. So it
 * prints one "fatal:" line and exits with status 2.
 */
bool
envForcesScalar()
{
    const char *env = std::getenv("QZ_HOST_SIMD");
    if (env == nullptr || *env == '\0')
        return false;
    const std::string_view value = env;
    if (value == "auto" || value == "scalar")
        return value == "scalar";
    const std::string msg = qformat("fatal: QZ_HOST_SIMD='{}' is not a "
                                    "backend (expected auto|scalar)\n",
                                    value);
    std::fputs(msg.c_str(), stderr);
    std::fflush(nullptr);
    std::_Exit(2);
}

const HostSimdOps &
resolve()
{
    if (!envForcesScalar() && cpuHasAvx512())
        return hostSimdAvx512Table();
    return hostSimdScalarOps();
}

} // namespace

const HostSimdOps &
hostSimd()
{
    static const HostSimdOps &ops = resolve();
    return ops;
}

const HostSimdOps *
hostSimdAvx512Ops()
{
#if defined(QZ_HOSTSIMD_HAVE_AVX512)
    if (cpuHasAvx512())
        return &hostSimdAvx512Table();
#endif
    return nullptr;
}

const char *
hostSimdCompiler()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

const char *
hostSimdBuildFlags()
{
#if defined(QZ_HOSTSIMD_HAVE_AVX512)
    return "avx512,scalar";
#else
    return "scalar";
#endif
}

} // namespace quetzal::isa
