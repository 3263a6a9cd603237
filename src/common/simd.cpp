/**
 * @file
 * Runtime state for the SIMD dispatch shim: the DICE_FORCE_SCALAR
 * latch lives here so every translation unit shares one decision.
 */

#include "common/simd.hpp"

#include "common/knobs.hpp"

namespace dice::simd
{

namespace detail
{

std::atomic<int> g_force_scalar{-1};

int
readForceScalarEnv()
{
    const int v = knobFlag(Knob::ForceScalar) ? 1 : 0;
    // Another thread may race the first read; both write the same
    // value, so a plain store is fine.
    g_force_scalar.store(v, std::memory_order_relaxed);
    return v;
}

} // namespace detail

void
setForceScalarForTest(bool force)
{
    detail::g_force_scalar.store(force ? 1 : 0,
                                 std::memory_order_relaxed);
}

const char *
backendName()
{
#if defined(DICE_SIMD_X86)
    return active() ? "avx2" : "scalar";
#elif defined(DICE_SIMD_NEON)
    return active() ? "neon" : "scalar";
#else
    return "scalar";
#endif
}

} // namespace dice::simd
