// Software emulation of IEEE-754 binary16 ("half", FP16).
//
// TurboAttention's GPU kernels run matmuls in FP16 on tensor cores and, in
// the FlashAttention baseline, exponentiation in FP32 on CUDA cores. On a
// CPU-only substrate we reproduce the *numerics* of those choices by
// rounding values through binary16 at exactly the points where the GPU
// kernels would hold them in half precision. Fp16 stores the raw 16-bit
// pattern; arithmetic is performed by converting to float and rounding the
// result back (matching the behaviour of FP16 FMA units with FP32
// accumulate when used via fp16_accumulate() helpers).
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "common/cpu_features.h"

#if TURBO_X86
#include <immintrin.h>
#endif

namespace turbo {

// Convert a float to the nearest binary16 bit pattern (round-to-nearest-even,
// with overflow to infinity and gradual underflow to subnormals).
std::uint16_t float_to_half_bits(float f);

// Convert a binary16 bit pattern back to float (exact).
float half_bits_to_float(std::uint16_t h);

// Round a float through binary16 precision: encode then decode. This is
// the portable path, and the oracle the F16C path is tested against.
inline float round_to_fp16_soft(float f) {
  return half_bits_to_float(float_to_half_bits(f));
}

// The one NaN every rounding path returns for a NaN input: quiet, no
// payload, the input's sign (binary16 0x7e00 | sign). The software encoder
// drops the payload; F16C would keep its top bits, so that path
// canonicalizes.
inline float canonical_fp16_nan(float f) {
  return std::bit_cast<float>(
      (std::bit_cast<std::uint32_t>(f) & 0x80000000u) | 0x7fc00000u);
}

// Round through binary16 with the F16C instructions (round to nearest
// even; subnormals are exact because nothing here sets MXCSR.DAZ).
// Precondition: cpu_has_f16c(). On other architectures this forwards to
// the software path, which is all round_to_fp16 selects there.
#if TURBO_X86
__attribute__((target("f16c"))) inline float round_to_fp16_f16c(float f) {
  const float r = _mm_cvtss_f32(_mm_cvtph_ps(
      _mm_cvtps_ph(_mm_set_ss(f), _MM_FROUND_TO_NEAREST_INT)));
  return r == r ? r : canonical_fp16_nan(f);
}
#else
inline float round_to_fp16_f16c(float f) { return round_to_fp16_soft(f); }
#endif

// Round a float through binary16 precision, on the fastest path the CPU
// has. Bit-identical to round_to_fp16_soft for every input.
inline float round_to_fp16(float f) {
  return cpu_has_f16c() ? round_to_fp16_f16c(f) : round_to_fp16_soft(f);
}

// Value type wrapping a binary16 bit pattern.
class Fp16 {
 public:
  Fp16() = default;
  explicit Fp16(float f) : bits_(float_to_half_bits(f)) {}

  static Fp16 from_bits(std::uint16_t bits) {
    Fp16 h;
    h.bits_ = bits;
    return h;
  }

  float to_float() const { return half_bits_to_float(bits_); }
  std::uint16_t bits() const { return bits_; }

  Fp16 operator+(Fp16 o) const { return Fp16(to_float() + o.to_float()); }
  Fp16 operator-(Fp16 o) const { return Fp16(to_float() - o.to_float()); }
  Fp16 operator*(Fp16 o) const { return Fp16(to_float() * o.to_float()); }
  Fp16 operator/(Fp16 o) const { return Fp16(to_float() / o.to_float()); }

  bool operator==(const Fp16&) const = default;

 private:
  std::uint16_t bits_ = 0;
};

// Round every element of a buffer through binary16 in place. Used to model
// tensors that a GPU kernel would store in half precision (e.g. Q/K/V tiles
// loaded into shared memory as FP16). Runs 8 lanes at a time with F16C
// when the CPU has it; the result is the same either way.
void round_span_to_fp16(std::span<float> values);

// The two paths round_span_to_fp16 selects between, for tests that hold
// them to each other. round_span_to_fp16_f16c requires cpu_has_f16c().
void round_span_to_fp16_soft(std::span<float> values);
void round_span_to_fp16_f16c(std::span<float> values);

// Dot product computed the way an FP16 tensor-core MMA does: inputs rounded
// to binary16, products and accumulation carried in FP32.
float fp16_dot_fp32_accumulate(std::span<const float> a,
                               std::span<const float> b);

// Largest finite binary16 value.
inline constexpr float kFp16Max = 65504.0f;

}  // namespace turbo
