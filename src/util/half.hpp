#pragma once

#include <cstdint>
#include <cstring>

namespace dpmd {

/// Software IEEE-754 binary16.  Fugaku's A64FX has native fp16 SVE lanes; on
/// this portable build we reproduce the *numerics* (storage precision and
/// round-to-nearest-even conversion) while accumulating in fp32, exactly as
/// the paper's fp16-sve-gemm accumulates in wider precision.
uint16_t float_to_half_bits(float f) noexcept;
float half_bits_to_float(uint16_t h) noexcept;

/// Value type wrapper so containers of halves are strongly typed.
struct Half {
  uint16_t bits = 0;

  Half() = default;
  explicit Half(float f) : bits(float_to_half_bits(f)) {}
  explicit Half(double d) : bits(float_to_half_bits(static_cast<float>(d))) {}

  float to_float() const noexcept { return half_bits_to_float(bits); }
  explicit operator float() const noexcept { return to_float(); }
  explicit operator double() const noexcept { return to_float(); }

  friend bool operator==(Half a, Half b) {
    return a.to_float() == b.to_float();
  }
};

/// Bulk conversions (hot path for the fp16 GEMM packing).
void convert_to_half(const float* src, Half* dst, std::size_t n) noexcept;
void convert_to_half(const double* src, Half* dst, std::size_t n) noexcept;
void convert_to_float(const Half* src, float* dst, std::size_t n) noexcept;

/// Smallest positive normal / max finite half values, for range tests.
inline constexpr float kHalfMax = 65504.0f;
inline constexpr float kHalfMinNormal = 6.103515625e-05f;

}  // namespace dpmd
