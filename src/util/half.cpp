#include "util/half.hpp"

#include <bit>

namespace dpmd {

uint16_t float_to_half_bits(float f) noexcept {
  const uint32_t x = std::bit_cast<uint32_t>(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  uint32_t mant = x & 0x007fffffu;
  const uint32_t exp8 = (x >> 23) & 0xffu;

  if (exp8 == 0xffu) {  // Inf / NaN: keep NaN payload non-zero.
    const uint32_t nan_payload = mant ? (0x0200u | (mant >> 13)) : 0u;
    return static_cast<uint16_t>(sign | 0x7c00u | nan_payload);
  }

  const int32_t exp = static_cast<int32_t>(exp8) - 127 + 15;
  if (exp >= 0x1f) {  // Overflow -> signed infinity.
    return static_cast<uint16_t>(sign | 0x7c00u);
  }
  if (exp <= 0) {
    if (exp < -10) return static_cast<uint16_t>(sign);  // Underflow -> 0.
    // Subnormal half: shift the (implicit-1) mantissa into place with RNE.
    mant |= 0x00800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - exp);  // 14..24
    uint32_t sub = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1u);
    if (rem > halfway || (rem == halfway && (sub & 1u))) ++sub;
    return static_cast<uint16_t>(sign | sub);
  }

  uint16_t h = static_cast<uint16_t>(sign | (static_cast<uint32_t>(exp) << 10) |
                                     (mant >> 13));
  const uint32_t rem = mant & 0x1fffu;
  // Round to nearest even; a carry out of the mantissa correctly bumps the
  // exponent (and saturates to infinity at the top).
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return h;
}

float half_bits_to_float(uint16_t h) noexcept {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp5 = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;

  if (exp5 == 0x1fu) {  // Inf / NaN
    return std::bit_cast<float>(sign | 0x7f800000u | (mant << 13));
  }
  if (exp5 == 0) {
    if (mant == 0) return std::bit_cast<float>(sign);  // signed zero
    // Subnormal: renormalize.
    int e = -1;
    do {
      mant <<= 1;
      ++e;
    } while ((mant & 0x400u) == 0);
    mant &= 0x3ffu;
    const uint32_t exp = static_cast<uint32_t>(127 - 15 - e);
    return std::bit_cast<float>(sign | (exp << 23) | (mant << 13));
  }
  const uint32_t exp = exp5 - 15 + 127;
  return std::bit_cast<float>(sign | (exp << 23) | (mant << 13));
}

void convert_to_half(const float* src, Half* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i].bits = float_to_half_bits(src[i]);
}

void convert_to_half(const double* src, Half* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i].bits = float_to_half_bits(static_cast<float>(src[i]));
  }
}

void convert_to_float(const Half* src, float* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = half_bits_to_float(src[i].bits);
}

}  // namespace dpmd
