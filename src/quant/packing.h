// Sub-byte bit packing for INT4 / INT2 (and INT3) payloads.
//
// The KV cache stores second-stage codes packed densely: two 4-bit codes or
// four 2-bit codes per byte (3-bit codes use a simple 8-codes-in-3-bytes
// layout). Codes are unsigned, already offset by the zero-point. Packing is
// little-endian within a byte: code i occupies the lowest free bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "quant/types.h"

namespace turbo {

// Bytes needed to store `count` codes of the given width.
std::size_t packed_byte_count(std::size_t count, BitWidth bits);

// Pack unsigned codes (each < 2^bits) into a dense byte vector.
std::vector<std::uint8_t> pack_codes(std::span<const std::uint8_t> codes,
                                     BitWidth bits);

// Unpack `count` codes from a packed buffer. INT4 and INT2 run a
// whole-byte loop (every code of a byte per step, then a tail of the
// last partial byte); INT3 runs the general bit-position loop.
void unpack_codes(std::span<const std::uint8_t> packed, BitWidth bits,
                  std::size_t count, std::span<std::uint8_t> out);

// The general bit-position loop, for every width: the reference the
// whole-byte loops are tested against.
void unpack_codes_bitwise(std::span<const std::uint8_t> packed,
                          BitWidth bits, std::size_t count,
                          std::span<std::uint8_t> out);

std::vector<std::uint8_t> unpack_codes(std::span<const std::uint8_t> packed,
                                       BitWidth bits, std::size_t count);

}  // namespace turbo
