// First-stage symmetric INT8 quantization (Eq. 9 / Algorithm 1).
//
// TurboAttention quantizes every FlashAttention tile of Q, K and V with a
// single symmetric scale s = max|x| / 119 before the integer matmuls. The
// 119 denominator (instead of 127) leaves headroom so that decode-time
// values slightly larger than the tile maximum seen at scale-selection time
// can still be represented after clamping — this is what makes the
// "universal scale" decode buffer (section 3.3) work without recompression.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace turbo {

// Headroom denominator from Algorithm 1.
inline constexpr float kSymmetricHeadroom = 119.0f;

// Scale for symmetric INT8 quantization of `values`: max|x| / 119.
// Returns a strictly positive scale even for all-zero input so that
// quantize/dequantize round-trips are always defined.
float symmetric_scale_int8(std::span<const float> values,
                           float headroom = kSymmetricHeadroom);

// q = clamp(round(x / scale), -127, 127), NaN -> 0. Runs 8 lanes at a
// time when the CPU has AVX2; both builds return the same codes.
void quantize_symmetric_int8(std::span<const float> values, float scale,
                             std::span<std::int8_t> out);

// Same on an explicit build, so tests can compare the two: `avx2` selects
// the AVX2 loop and must only be set on a CPU that has AVX2.
void quantize_symmetric_int8(std::span<const float> values, float scale,
                             std::span<std::int8_t> out, bool avx2);

// x^ = q * scale.
void dequantize_symmetric_int8(std::span<const std::int8_t> q, float scale,
                               std::span<float> out);

// An INT8-quantized tile together with its (FP) per-block scale — the unit
// FlashQ's blockwise progressive quantization operates on.
struct Int8Tile {
  MatrixI8 q;
  float scale = 1.0f;
};

// Quantize a whole tile with one per-block scale.
Int8Tile quantize_tile_int8(const MatrixF& tile,
                            float headroom = kSymmetricHeadroom);

// Quantize a tile against an externally chosen ("universal") scale,
// clamping outliers into [-127, 127]. Used by the enhanced KV-cache buffer.
Int8Tile quantize_tile_int8_with_scale(const MatrixF& tile, float scale);

MatrixF dequantize_tile(const Int8Tile& tile);

}  // namespace turbo
