// Bit-true narrow floating-point formats (IEEE-754 style): binary16 and the
// SmallFloat/MiniFloat 8-bit formats used by the TeraPool ISA extensions.
//
// Arithmetic is performed in IEEE double and rounded once to the target
// format (round-to-nearest-even). This is the standard emulator shortcut; it
// is exact for add/sub/mul of narrow formats (their products and sums are
// exactly representable in double) and correct for fused ops except for a
// documented corner: when a 3-term sum has an addend more than 52 bits below
// the leading term AND the leading terms land exactly on a rounding tie, the
// tie may be broken as ties-to-even instead of by the vanishing addend. This
// cannot affect the paper's BER or timing experiments and is excluded from
// tests.
//
// The codec between a format and double is branch-free on its hot path, so
// the scalar interpreter runs it without mispredicts and the ISS lockstep
// sweep vectorizes it across a batch of harts:
//  - Decode rebiases the exponent and widens the mantissa into the double's
//    fields. A subnormal 0.m * 2^(1-bias) is formed exactly as the double
//    difference 1.m * 2^(1-bias) - 2^(1-bias); inf and NaN are selected.
//  - Encode rounds the double's magnitude bits to nearest-even with one
//    integer add (`a + (half - 1) + lsb`, then `>> (52 - M)`): a mantissa
//    carry ripples into the exponent field by itself. Rebiasing the exponent
//    and clamping to inf finish every +-0 and every result whose magnitude
//    is at least the format's smallest normal. The rest - results that round
//    to a subnormal (or up to the smallest normal), NaN and double
//    subnormals - take `encode_general`, the one out-of-line path, which
//    handles exactly those cases.
// `encode_fast` exposes the hot path with a "needs the general encoder" flag
// for lane kernels that batch the rare lanes out (iss/machine.cpp).
#pragma once

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/types.h"

namespace tsim::sf {

/// Result category for FCLASS-style classification.
enum class FpClass : u32 {
  kNegInf = 1u << 0,
  kNegNormal = 1u << 1,
  kNegSubnormal = 1u << 2,
  kNegZero = 1u << 3,
  kPosZero = 1u << 4,
  kPosSubnormal = 1u << 5,
  kPosNormal = 1u << 6,
  kPosInf = 1u << 7,
  kSignalingNan = 1u << 8,
  kQuietNan = 1u << 9,
};

/// Static description of a sign/exponent/mantissa mini-float format.
///
/// The value with biased exponent 0 is subnormal; all-ones exponent encodes
/// inf/NaN, exactly as IEEE-754 binary interchange formats.
template <int kExpBits, int kMantBits>
struct MiniFormat {
  static_assert(kExpBits >= 2 && kExpBits <= 8);
  static_assert(kMantBits >= 1 && kMantBits <= 10);

  static constexpr int kBits = 1 + kExpBits + kMantBits;
  static constexpr int kBias = (1 << (kExpBits - 1)) - 1;
  static constexpr u32 kExpMask = (1u << kExpBits) - 1u;
  static constexpr u32 kMantMask = (1u << kMantBits) - 1u;
  static constexpr u32 kSignBit = 1u << (kExpBits + kMantBits);
  static constexpr u32 kValueMask = (kBits >= 32) ? 0xFFFFFFFFu : ((1u << kBits) - 1u);
  /// Canonical quiet NaN: exponent all ones, mantissa MSB set.
  static constexpr u32 kQuietNanBits = (kExpMask << kMantBits) | (1u << (kMantBits - 1));
  static constexpr u32 kPosInfBits = kExpMask << kMantBits;

  // The double bridge: a format value with biased exponent e and mantissa
  // m is the double with biased exponent e + kRebias and mantissa
  // m << kShift.
  static constexpr int kShift = 52 - kMantBits;
  static constexpr u64 kRebias = static_cast<u64>(1023 - kBias);
  static constexpr u64 kDoubleInf = 0x7FFull << 52;
  static constexpr u64 kDoubleQuietNan = 0xFFFull << 51;  // std::numeric_limits' qNaN
  /// Double bits of 2^(1 - kBias), the format's smallest normal.
  static constexpr u64 kDoubleMinNormal = (kRebias + 1) << 52;

  /// Decodes the low kBits of `enc` into an exact double. Every NaN decodes
  /// to the canonical positive quiet NaN.
  static double to_double(u32 enc) {
    enc &= kValueMask;
    const u64 sign = static_cast<u64>(enc >> (kBits - 1)) << 63;
    const u64 exp = (enc >> kMantBits) & kExpMask;
    const u64 frac = static_cast<u64>(enc & kMantMask) << kShift;
    const u64 normal = ((exp + kRebias) << 52) | frac;
    const u64 subnormal = std::bit_cast<u64>(std::bit_cast<double>(kDoubleMinNormal | frac) -
                                             std::bit_cast<double>(kDoubleMinNormal));
    const u64 special = frac != 0 ? kDoubleQuietNan : (kDoubleInf | sign);
    const u64 finite = (exp == 0 ? subnormal : normal) | sign;
    return std::bit_cast<double>(exp == kExpMask ? special : finite);
  }

  /// Hot path of `from_double`: the encoding of `d` when it is +-0 or its
  /// magnitude is at least the smallest normal (overflow saturates to inf).
  /// Otherwise ORs 1 into `slow` and returns an unspecified value. Branch-
  /// free, so a loop over lanes vectorizes.
  [[gnu::always_inline]] static u32 encode_fast(double d, u32& slow) {
    const u64 bits = std::bit_cast<u64>(d);
    const u64 a = bits & ~(1ull << 63);
    slow |= static_cast<u32>((a - kDoubleMinNormal > kDoubleInf - kDoubleMinNormal) &
                             (a != 0));
    // Round to nearest even at bit kShift; t = (double biased exp, mantissa).
    const u64 t = (a + ((1ull << (kShift - 1)) - 1) + ((a >> kShift) & 1)) >> kShift;
    u32 mag = static_cast<u32>(t - (kRebias << kMantBits));
    mag = t >= (kRebias + kExpMask) << kMantBits ? kPosInfBits : mag;
    mag = a == 0 ? 0u : mag;
    return (static_cast<u32>(bits >> 63) << (kBits - 1)) | mag;
  }

  /// Encodes `d` with round-to-nearest-even, overflow to infinity; NaN
  /// encodes to the canonical quiet NaN.
  static u32 from_double(double d) {
    u32 slow = 0;
    const u32 enc = encode_fast(d, slow);
    if (slow != 0) [[unlikely]] return encode_general(d);
    return enc;
  }

  /// The slow inputs of `from_double`: NaN, and nonzero magnitudes below
  /// the smallest normal 2^(1 - kBias), double subnormals included. The
  /// result is the canonical NaN, +-0, a subnormal, or the smallest normal
  /// when rounding carries into it. Out of line: only the rare lanes get here.
  [[gnu::noinline]] static u32 encode_general(double d) {
    const u64 dbits = std::bit_cast<u64>(d);
    if ((dbits & ~(1ull << 63)) > kDoubleInf) return kQuietNanBits;  // sign dropped
    const u32 sign = static_cast<u32>(dbits >> 63) << (kBits - 1);
    const int dexp = static_cast<int>(dbits >> 52) & 0x7FF;
    // Double subnormals (< 2^-1022) underflow every mini format to zero.
    if (dexp == 0) return sign;
    // value = mant53 * 2^(dexp - 1075); the result counts units of the
    // smallest subnormal 2^(1 - kBias - kMantBits), mant53 >> shift of them.
    const u64 mant53 = (1ull << 52) | (dbits & ((1ull << 52) - 1));
    const int shift = kShift + (1 - kBias) - (dexp - 1023);
    if (shift > 62) return sign;  // magnitude far below half the smallest subnormal

    // Round-to-nearest-even on the dropped bits.
    u64 keep = mant53 >> shift;
    const u64 rem = mant53 & ((1ull << shift) - 1);
    const u64 half = 1ull << (shift - 1);
    if (rem > half || (rem == half && (keep & 1))) ++keep;
    // keep <= kMantMask + 1, and a carry up to kMantMask + 1 is exactly the
    // encoding of the smallest normal.
    return sign | static_cast<u32>(keep);
  }

  static bool is_nan(u32 enc) {
    enc &= kValueMask;
    return ((enc >> kMantBits) & kExpMask) == kExpMask && (enc & kMantMask) != 0;
  }

  static bool is_inf(u32 enc) {
    enc &= kValueMask;
    return ((enc >> kMantBits) & kExpMask) == kExpMask && (enc & kMantMask) == 0;
  }

  static bool is_zero(u32 enc) { return (enc & kValueMask & ~kSignBit) == 0; }

  static bool sign_of(u32 enc) { return (enc & kSignBit) != 0; }

  /// FCLASS bitmask for the encoded value.
  static u32 classify(u32 enc) {
    enc &= kValueMask;
    const bool neg = sign_of(enc);
    const u32 exp = (enc >> kMantBits) & kExpMask;
    const u32 mant = enc & kMantMask;
    if (exp == kExpMask) {
      if (mant == 0) return static_cast<u32>(neg ? FpClass::kNegInf : FpClass::kPosInf);
      // Mantissa MSB set => quiet NaN (IEEE-754 convention).
      return static_cast<u32>((mant >> (kMantBits - 1)) != 0 ? FpClass::kQuietNan
                                                             : FpClass::kSignalingNan);
    }
    if (exp == 0) {
      if (mant == 0) return static_cast<u32>(neg ? FpClass::kNegZero : FpClass::kPosZero);
      return static_cast<u32>(neg ? FpClass::kNegSubnormal : FpClass::kPosSubnormal);
    }
    return static_cast<u32>(neg ? FpClass::kNegNormal : FpClass::kPosNormal);
  }
};

/// IEEE-754 binary16.
using F16 = MiniFormat<5, 10>;
/// MiniFloat e4m3 (default FP8 of this repo; see DESIGN.md on the paper's 1-4-2).
using F8E4M3 = MiniFormat<4, 3>;
/// SmallFloat binary8 (e5m2).
using F8E5M2 = MiniFormat<5, 2>;
/// Literal paper format "1b sign, 4b exponent, 2b mantissa" (7 bits, stored in 8).
using F8E4M2 = MiniFormat<4, 2>;

// ---------------------------------------------------------------------------
// Generic arithmetic: compute in double, round once into the target format.
//
// The final rounding is a policy, so each op's arithmetic is written once and
// serves both callers: `Exact` (the default) is `from_double`; `FastOrFlag`
// keeps to the branch-free `encode_fast` and flags lanes that need the
// general encoder, for lane kernels that re-run those lanes exactly.
// ---------------------------------------------------------------------------

struct Exact {
  template <typename Fmt>
  u32 round(double d) const {
    return Fmt::from_double(d);
  }
};

struct FastOrFlag {
  u32& slow;  // ORed with 1 when a rounding left the fast path
  template <typename Fmt>
  [[gnu::always_inline]] u32 round(double d) const {
    return Fmt::encode_fast(d, slow);
  }
};

template <typename Fmt, typename R = Exact>
u32 add(u32 a, u32 b, R r = {}) {
  return r.template round<Fmt>(Fmt::to_double(a) + Fmt::to_double(b));
}

template <typename Fmt, typename R = Exact>
u32 sub(u32 a, u32 b, R r = {}) {
  return r.template round<Fmt>(Fmt::to_double(a) - Fmt::to_double(b));
}

template <typename Fmt, typename R = Exact>
u32 mul(u32 a, u32 b, R r = {}) {
  return r.template round<Fmt>(Fmt::to_double(a) * Fmt::to_double(b));
}

template <typename Fmt>
u32 div(u32 a, u32 b) {
  return Fmt::from_double(Fmt::to_double(a) / Fmt::to_double(b));
}

template <typename Fmt>
u32 sqrt(u32 a) {
  return Fmt::from_double(std::sqrt(Fmt::to_double(a)));
}

/// Fused multiply-add: round(a * b + c) with a single rounding.
template <typename Fmt, typename R = Exact>
u32 fma(u32 a, u32 b, u32 c, R r = {}) {
  return r.template round<Fmt>(
      std::fma(Fmt::to_double(a), Fmt::to_double(b), Fmt::to_double(c)));
}

/// IEEE 754-2019 minimumNumber: NaN loses to a number, -0 < +0.
template <typename Fmt>
u32 min(u32 a, u32 b) {
  if (Fmt::is_nan(a) && Fmt::is_nan(b)) return Fmt::kQuietNanBits;
  if (Fmt::is_nan(a)) return b & Fmt::kValueMask;
  if (Fmt::is_nan(b)) return a & Fmt::kValueMask;
  const double da = Fmt::to_double(a), db = Fmt::to_double(b);
  if (da == db) return (Fmt::sign_of(a) ? a : b) & Fmt::kValueMask;  // prefer -0
  return (da < db ? a : b) & Fmt::kValueMask;
}

/// IEEE 754-2019 maximumNumber.
template <typename Fmt>
u32 max(u32 a, u32 b) {
  if (Fmt::is_nan(a) && Fmt::is_nan(b)) return Fmt::kQuietNanBits;
  if (Fmt::is_nan(a)) return b & Fmt::kValueMask;
  if (Fmt::is_nan(b)) return a & Fmt::kValueMask;
  const double da = Fmt::to_double(a), db = Fmt::to_double(b);
  if (da == db) return (Fmt::sign_of(a) ? b : a) & Fmt::kValueMask;  // prefer +0
  return (da > db ? a : b) & Fmt::kValueMask;
}

template <typename Fmt>
bool eq(u32 a, u32 b) {
  if (Fmt::is_nan(a) || Fmt::is_nan(b)) return false;
  return Fmt::to_double(a) == Fmt::to_double(b);
}

template <typename Fmt>
bool lt(u32 a, u32 b) {
  if (Fmt::is_nan(a) || Fmt::is_nan(b)) return false;
  return Fmt::to_double(a) < Fmt::to_double(b);
}

template <typename Fmt>
bool le(u32 a, u32 b) {
  if (Fmt::is_nan(a) || Fmt::is_nan(b)) return false;
  return Fmt::to_double(a) <= Fmt::to_double(b);
}

/// Sign-injection family (FSGNJ / FSGNJN / FSGNJX).
template <typename Fmt>
u32 sgnj(u32 a, u32 b) {
  return (a & ~Fmt::kSignBit & Fmt::kValueMask) | (b & Fmt::kSignBit);
}
template <typename Fmt>
u32 sgnjn(u32 a, u32 b) {
  return (a & ~Fmt::kSignBit & Fmt::kValueMask) | (~b & Fmt::kSignBit);
}
template <typename Fmt>
u32 sgnjx(u32 a, u32 b) {
  return ((a & Fmt::kValueMask) ^ (b & Fmt::kSignBit));
}

/// Convert to signed 32-bit integer, round toward zero (FCVT.W.* default).
template <typename Fmt>
i32 to_i32(u32 a) {
  const double d = Fmt::to_double(a);
  if (std::isnan(d)) return std::numeric_limits<i32>::max();
  if (d >= 2147483647.0) return std::numeric_limits<i32>::max();
  if (d <= -2147483648.0) return std::numeric_limits<i32>::min();
  return static_cast<i32>(d);
}

/// Convert to unsigned 32-bit integer, round toward zero.
template <typename Fmt>
u32 to_u32(u32 a) {
  const double d = Fmt::to_double(a);
  if (std::isnan(d)) return std::numeric_limits<u32>::max();
  if (d >= 4294967295.0) return std::numeric_limits<u32>::max();
  if (d <= 0.0) return 0;
  return static_cast<u32>(d);
}

template <typename Fmt>
u32 from_i32(i32 v) {
  return Fmt::from_double(static_cast<double>(v));
}

template <typename Fmt>
u32 from_u32(u32 v) {
  return Fmt::from_double(static_cast<double>(v));
}

/// Cross-format conversion with a single rounding.
template <typename Dst, typename Src>
u32 convert(u32 a) {
  if (Src::is_nan(a)) return Dst::kQuietNanBits;
  return Dst::from_double(Src::to_double(a));
}

// ---------------------------------------------------------------------------
// binary32 helpers (zfinx scalar float ops use host IEEE float directly).
// ---------------------------------------------------------------------------

inline float f32_from_bits(u32 b) { return std::bit_cast<float>(b); }
inline u32 f32_to_bits(float f) { return std::bit_cast<u32>(f); }

/// FCLASS.S over a binary32 encoding.
u32 classify_f32(u32 enc);

/// round-to-nearest-even float from double (single rounding for f32 results
/// computed exactly in double).
inline u32 f32_round_from_double(double d) { return f32_to_bits(static_cast<float>(d)); }

}  // namespace tsim::sf
