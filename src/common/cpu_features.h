// Runtime CPU-feature queries for the kernels' SIMD fast paths.
//
// The default build targets baseline x86-64 (no -march), so instructions
// beyond SSE2 are reached only through functions carrying
// __attribute__((target(...))) and selected at run time with these
// queries. Every fast path returns exactly the bits of the portable path
// it replaces, so which one runs never changes a result.
//
// __builtin_cpu_supports reads the feature word libgcc fills in before
// main; each query is one load and test. Code running earlier than that
// (static initializers) sees "unsupported" and takes the portable path.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#define TURBO_X86 1
#else
#define TURBO_X86 0
#endif

namespace turbo {

// F16C: vcvtps2ph / vcvtph2ps (binary16 <-> binary32). Implies AVX.
inline bool cpu_has_f16c() {
#if TURBO_X86
  return __builtin_cpu_supports("f16c") != 0;
#else
  return false;
#endif
}

// AVX2: 8-lane integer multiply/min/max, vpermps.
inline bool cpu_has_avx2() {
#if TURBO_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace turbo
