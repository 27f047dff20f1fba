// turbo-lint: integer-kernel
#include "quant/packing.h"

#include "common/check.h"
#include "common/numeric.h"

namespace turbo {

std::size_t packed_byte_count(std::size_t count, BitWidth bits) {
  const std::size_t b = static_cast<std::size_t>(bit_count(bits));
  return (count * b + 7) / 8;
}

std::vector<std::uint8_t> pack_codes(std::span<const std::uint8_t> codes,
                                     BitWidth bits) {
  const int b = bit_count(bits);
  const std::uint8_t mask = trunc_to_u8((1u << static_cast<unsigned>(b)) - 1u);
  std::vector<std::uint8_t> out(packed_byte_count(codes.size(), bits), 0);
  std::size_t bitpos = 0;
  for (std::uint8_t code : codes) {
    TURBO_DCHECK((code & ~mask) == 0);
    const std::size_t byte = bitpos >> 3;
    const unsigned shift = bitpos & 7u;
    out[byte] |= trunc_to_u8((code & mask) << shift);
    // A code can straddle a byte boundary (3-bit case).
    if (shift + static_cast<unsigned>(b) > 8) {
      out[byte + 1] |= trunc_to_u8((code & mask) >> (8 - shift));
    }
    bitpos += static_cast<std::size_t>(b);
  }
  return out;
}

namespace {

// Widths whose codes never straddle a byte: 8 / B codes per byte, code j
// of a byte in bits [j * B, (j + 1) * B).
template <unsigned B>
void unpack_whole_bytes(const std::uint8_t* packed, std::size_t count,
                        std::uint8_t* out) {
  constexpr std::size_t kPerByte = 8 / B;
  constexpr unsigned kMask = (1u << B) - 1u;
  const std::size_t full = count / kPerByte;
  for (std::size_t i = 0; i < full; ++i) {
    const unsigned byte = packed[i];
    for (std::size_t j = 0; j < kPerByte; ++j) {
      out[i * kPerByte + j] = trunc_to_u8((byte >> (j * B)) & kMask);
    }
  }
  // Tail: the first `rest` codes of the last, partial byte. It exists
  // exactly when packed_byte_count(count) == full + 1.
  const std::size_t rest = count - full * kPerByte;
  if (rest > 0) {
    const unsigned byte = packed[full];
    for (std::size_t j = 0; j < rest; ++j) {
      out[full * kPerByte + j] = trunc_to_u8((byte >> (j * B)) & kMask);
    }
  }
}

void check_unpack_args(std::span<const std::uint8_t> packed, BitWidth bits,
                       std::size_t count, std::span<std::uint8_t> out) {
  TURBO_CHECK(out.size() >= count);
  TURBO_CHECK(packed.size() >= packed_byte_count(count, bits));
}

}  // namespace

void unpack_codes_bitwise(std::span<const std::uint8_t> packed,
                          BitWidth bits, std::size_t count,
                          std::span<std::uint8_t> out) {
  check_unpack_args(packed, bits, count, out);
  const int b = bit_count(bits);
  const std::uint8_t mask = trunc_to_u8((1u << static_cast<unsigned>(b)) - 1u);
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t byte = bitpos >> 3;
    const unsigned shift = bitpos & 7u;
    unsigned v = static_cast<unsigned>(packed[byte]) >> shift;
    if (shift + static_cast<unsigned>(b) > 8) {
      v |= static_cast<unsigned>(packed[byte + 1]) << (8 - shift);
    }
    out[i] = trunc_to_u8(v & mask);
    bitpos += static_cast<std::size_t>(b);
  }
}

void unpack_codes(std::span<const std::uint8_t> packed, BitWidth bits,
                  std::size_t count, std::span<std::uint8_t> out) {
  switch (bits) {
    case BitWidth::kInt4:
      check_unpack_args(packed, bits, count, out);
      unpack_whole_bytes<4>(packed.data(), count, out.data());
      return;
    case BitWidth::kInt2:
      check_unpack_args(packed, bits, count, out);
      unpack_whole_bytes<2>(packed.data(), count, out.data());
      return;
    default:
      unpack_codes_bitwise(packed, bits, count, out);
      return;
  }
}

std::vector<std::uint8_t> unpack_codes(std::span<const std::uint8_t> packed,
                                       BitWidth bits, std::size_t count) {
  std::vector<std::uint8_t> out(count);
  unpack_codes(packed, bits, count, out);
  return out;
}

}  // namespace turbo
