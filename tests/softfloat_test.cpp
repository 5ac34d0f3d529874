// Bit-true mini-float format tests: encode/decode round trips, rounding,
// special values, and arithmetic identities.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/rng.h"
#include "softfloat/minifloat.h"
#include "softfloat/packed.h"

namespace tsim::sf {
namespace {

// Reference codec: the branchy per-case decoder and encoder the
// branch-free MiniFormat codec replaced, kept verbatim in logic (decode
// scales with std::ldexp) as the oracle of the equivalence tests below.
template <typename Fmt>
struct RefCodec {
  static constexpr int kMantBits = std::popcount(Fmt::kMantMask);
  static double to_double(u32 enc) {
    enc &= Fmt::kValueMask;
    const bool sign = (enc & Fmt::kSignBit) != 0;
    const u32 exp = (enc >> kMantBits) & Fmt::kExpMask;
    const u32 mant = enc & Fmt::kMantMask;
    double mag;
    if (exp == Fmt::kExpMask) {
      if (mant != 0) return std::numeric_limits<double>::quiet_NaN();
      mag = std::numeric_limits<double>::infinity();
    } else if (exp == 0) {
      mag = std::ldexp(static_cast<double>(mant), 1 - Fmt::kBias - kMantBits);
    } else {
      mag = std::ldexp(static_cast<double>(mant | (Fmt::kMantMask + 1u)),
                       static_cast<int>(exp) - Fmt::kBias - kMantBits);
    }
    return sign ? -mag : mag;
  }

  static u32 from_double(double d) {
    const u64 dbits = std::bit_cast<u64>(d);
    const u32 sign = static_cast<u32>(dbits >> 63) << (Fmt::kBits - 1);
    const int dexp = static_cast<int>((dbits >> 52) & 0x7FF);
    const u64 dmant = dbits & ((1ull << 52) - 1);
    if (dexp == 0x7FF) {
      if (dmant != 0) return Fmt::kQuietNanBits;
      return sign | Fmt::kPosInfBits;
    }
    if (dexp == 0) return sign;  // +-0 and double subnormals
    const u64 mant53 = (1ull << 52) | dmant;
    const int unbiased = dexp - 1023;
    const int min_normal_exp = 1 - Fmt::kBias;
    int biased;
    int shift;
    if (unbiased >= min_normal_exp) {
      biased = unbiased + Fmt::kBias;
      shift = 52 - kMantBits;
    } else {
      biased = 0;
      shift = (52 - kMantBits) + (min_normal_exp - unbiased);
    }
    if (shift > 62) return sign;
    u64 keep = mant53 >> shift;
    const u64 rem = mant53 & ((1ull << shift) - 1);
    const u64 half = 1ull << (shift - 1);
    if (rem > half || (rem == half && (keep & 1))) ++keep;
    if (biased == 0) {
      if (keep > Fmt::kMantMask) return sign | (1u << kMantBits);
      return sign | static_cast<u32>(keep);
    }
    if (keep == (Fmt::kMantMask + 1u) * 2) {
      keep >>= 1;
      ++biased;
    }
    if (biased >= static_cast<int>(Fmt::kExpMask)) return sign | Fmt::kPosInfBits;
    return sign | (static_cast<u32>(biased) << kMantBits) | (static_cast<u32>(keep) & Fmt::kMantMask);
  }
};

u64 bits_of(double d) { return std::bit_cast<u64>(d); }

TEST(F16, EncodesKnownConstants) {
  EXPECT_EQ(F16::from_double(0.0), 0x0000u);
  EXPECT_EQ(F16::from_double(-0.0), 0x8000u);
  EXPECT_EQ(F16::from_double(1.0), 0x3C00u);
  EXPECT_EQ(F16::from_double(-1.0), 0xBC00u);
  EXPECT_EQ(F16::from_double(2.0), 0x4000u);
  EXPECT_EQ(F16::from_double(0.5), 0x3800u);
  EXPECT_EQ(F16::from_double(65504.0), 0x7BFFu);             // max normal
  EXPECT_EQ(F16::from_double(std::ldexp(1.0, -24)), 0x0001u);  // min subnormal
  EXPECT_EQ(F16::from_double(std::ldexp(1.0, -26)), 0x0000u);  // below half of it
}

TEST(F16, DecodesKnownConstants) {
  EXPECT_DOUBLE_EQ(F16::to_double(0x3C00), 1.0);
  EXPECT_DOUBLE_EQ(F16::to_double(0x4000), 2.0);
  EXPECT_DOUBLE_EQ(F16::to_double(0x3555), 0.333251953125);
  EXPECT_DOUBLE_EQ(F16::to_double(0x0001), std::ldexp(1.0, -24));  // min subnormal
  EXPECT_DOUBLE_EQ(F16::to_double(0x0400), std::ldexp(1.0, -14));  // min normal
}

TEST(F16, RoundTripsAllFiniteEncodings) {
  for (u32 enc = 0; enc < 0x10000; ++enc) {
    if (F16::is_nan(enc)) continue;
    const double d = F16::to_double(enc);
    const u32 back = F16::from_double(d);
    // -0 and +0 both decode to 0.0 but encode preserving the sign we gave.
    if (enc == 0x8000) {
      EXPECT_EQ(back, 0x8000u);
    } else {
      EXPECT_EQ(back, enc) << "enc=0x" << std::hex << enc;
    }
  }
}

TEST(F16, RoundsToNearestEven) {
  // 1.0 + 1ulp/2 rounds to even (stays 1.0).
  const double one_plus_half_ulp = 1.0 + std::ldexp(1.0, -11);
  EXPECT_EQ(F16::from_double(one_plus_half_ulp), 0x3C00u);
  // The next representable tie rounds up to even.
  const double odd_tie = F16::to_double(0x3C01) + std::ldexp(1.0, -11);
  EXPECT_EQ(F16::from_double(odd_tie), 0x3C02u);
  // Slightly above the tie rounds up.
  EXPECT_EQ(F16::from_double(one_plus_half_ulp + 1e-8), 0x3C01u);
}

TEST(F16, OverflowGoesToInfinity) {
  EXPECT_EQ(F16::from_double(1e6), F16::kPosInfBits);
  EXPECT_EQ(F16::from_double(-1e6), F16::kSignBit | F16::kPosInfBits);
  EXPECT_EQ(F16::from_double(65520.0), F16::kPosInfBits);  // above max+ulp/2 tie
}

TEST(F16, SubnormalsRoundCorrectly) {
  const double min_sub = std::ldexp(1.0, -24);
  EXPECT_EQ(F16::from_double(min_sub), 0x0001u);
  EXPECT_EQ(F16::from_double(min_sub * 0.5), 0x0000u);       // tie to even -> 0
  EXPECT_EQ(F16::from_double(min_sub * 0.75), 0x0001u);      // rounds up
  EXPECT_EQ(F16::from_double(min_sub * 1.5), 0x0002u);       // tie to even -> 2
}

TEST(F16, NanAndInfHandling) {
  EXPECT_TRUE(F16::is_nan(F16::from_double(std::nan(""))));
  EXPECT_TRUE(F16::is_inf(F16::from_double(INFINITY)));
  EXPECT_TRUE(std::isnan(F16::to_double(F16::kQuietNanBits)));
  EXPECT_TRUE(std::isinf(F16::to_double(F16::kPosInfBits)));
}

TEST(F16, ArithmeticMatchesDoubleWithSingleRounding) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const u32 a = F16::from_double(rng.normal());
    const u32 b = F16::from_double(rng.normal());
    EXPECT_EQ(add<F16>(a, b), F16::from_double(F16::to_double(a) + F16::to_double(b)));
    EXPECT_EQ(mul<F16>(a, b), F16::from_double(F16::to_double(a) * F16::to_double(b)));
  }
}

TEST(F16, FmaIsFused) {
  // Choose a case where fused and unfused differ: a*b slightly above a tie.
  const u32 a = F16::from_double(1.0 + 1.0 / 1024);
  const u32 b = F16::from_double(1.0 + 1.0 / 1024);
  const u32 c = F16::from_double(std::ldexp(1.0, -20));
  const double exact = F16::to_double(a) * F16::to_double(b) + F16::to_double(c);
  EXPECT_EQ(fma<F16>(a, b, c), F16::from_double(exact));
}

TEST(F16, MinMaxIeeeSemantics) {
  const u32 one = F16::from_double(1.0);
  const u32 neg = F16::from_double(-2.0);
  EXPECT_EQ(min<F16>(one, neg), neg);
  EXPECT_EQ(max<F16>(one, neg), one);
  EXPECT_EQ(min<F16>(F16::kQuietNanBits, one), one);   // NaN loses
  EXPECT_EQ(max<F16>(one, F16::kQuietNanBits), one);
  EXPECT_EQ(min<F16>(0x8000u, 0x0000u), 0x8000u);      // -0 < +0
}

TEST(F16, Comparisons) {
  const u32 a = F16::from_double(1.5), b = F16::from_double(2.5);
  EXPECT_TRUE(lt<F16>(a, b));
  EXPECT_TRUE(le<F16>(a, a));
  EXPECT_TRUE(eq<F16>(b, b));
  EXPECT_FALSE(eq<F16>(F16::kQuietNanBits, F16::kQuietNanBits));
  EXPECT_FALSE(lt<F16>(F16::kQuietNanBits, a));
}

TEST(F16, Classify) {
  EXPECT_EQ(F16::classify(0x3C00), static_cast<u32>(FpClass::kPosNormal));
  EXPECT_EQ(F16::classify(0xBC00), static_cast<u32>(FpClass::kNegNormal));
  EXPECT_EQ(F16::classify(0x0000), static_cast<u32>(FpClass::kPosZero));
  EXPECT_EQ(F16::classify(0x8000), static_cast<u32>(FpClass::kNegZero));
  EXPECT_EQ(F16::classify(0x0001), static_cast<u32>(FpClass::kPosSubnormal));
  EXPECT_EQ(F16::classify(0x7C00), static_cast<u32>(FpClass::kPosInf));
  EXPECT_EQ(F16::classify(0x7E00), static_cast<u32>(FpClass::kQuietNan));
  EXPECT_EQ(F16::classify(0x7D00), static_cast<u32>(FpClass::kSignalingNan));
}

template <typename Fmt>
class MiniFormatTest : public ::testing::Test {};

using Formats = ::testing::Types<F8E4M3, F8E5M2, F8E4M2>;
TYPED_TEST_SUITE(MiniFormatTest, Formats);

TYPED_TEST(MiniFormatTest, RoundTripsAllFiniteEncodings) {
  using Fmt = TypeParam;
  for (u32 enc = 0; enc < (1u << Fmt::kBits); ++enc) {
    if (Fmt::is_nan(enc)) continue;
    const double d = Fmt::to_double(enc);
    const u32 back = Fmt::from_double(d);
    if (Fmt::is_zero(enc) && Fmt::sign_of(enc)) {
      EXPECT_EQ(back, enc);
    } else {
      EXPECT_EQ(back, enc) << "enc=" << enc;
    }
  }
}

TYPED_TEST(MiniFormatTest, OneIsExact) {
  using Fmt = TypeParam;
  EXPECT_DOUBLE_EQ(Fmt::to_double(Fmt::from_double(1.0)), 1.0);
}

TYPED_TEST(MiniFormatTest, QuantizationErrorIsBounded) {
  using Fmt = TypeParam;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform() * 2.0 + 0.25;  // stay in normal range
    const double q = Fmt::to_double(Fmt::from_double(v));
    const double max_rel = 0.5 / ((Fmt::kMantMask + 1));  // half ulp at 1.x
    EXPECT_LE(std::abs(q - v) / v, max_rel + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Codec equivalence: the branch-free codec against RefCodec, per format.
// ---------------------------------------------------------------------------

template <typename Fmt>
class CodecEquivalence : public ::testing::Test {
 protected:
  using Ref = RefCodec<Fmt>;
  /// Encodes `d` and `-d` with both codecs and compares the bits.
  static void expect_encode(double d) {
    for (const double v : {d, -d}) {
      ASSERT_EQ(Fmt::from_double(v), Ref::from_double(v))
          << "d=" << v << " bits=0x" << std::hex << bits_of(v);
    }
  }
};

using AllFormats = ::testing::Types<F16, F8E4M3, F8E5M2, F8E4M2>;
TYPED_TEST_SUITE(CodecEquivalence, AllFormats);

TYPED_TEST(CodecEquivalence, EveryEncodingDecodesBitIdentically) {
  using Fmt = TypeParam;
  for (u32 enc = 0; enc < (1u << Fmt::kBits); ++enc) {
    ASSERT_EQ(bits_of(Fmt::to_double(enc)), bits_of(TestFixture::Ref::to_double(enc)))
        << "enc=0x" << std::hex << enc;
  }
}

TYPED_TEST(CodecEquivalence, EncodesMatchAroundEveryRepresentableValue) {
  using Fmt = TypeParam;
  using Ref = typename TestFixture::Ref;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Positive finite encodings in increasing order of value: 0 .. max normal.
  const u32 top = Fmt::kPosInfBits;
  for (u32 enc = 0; enc < top; ++enc) {
    const double v = Ref::to_double(enc);
    const double next = Ref::to_double(enc + 1);  // the successor (inf at the top)
    // The value itself and one double ulp either side of it.
    for (const double d : {v, std::nextafter(v, kInf), std::nextafter(v, -kInf)})
      TestFixture::expect_encode(d);
    // The exact tie to the successor and one ulp either side of it; past max
    // normal the "successor" is the overflow threshold max + ulp/2.
    const double ulp = enc + 1 == top ? v - Ref::to_double(enc - 1) : next - v;
    const double mid = v + ulp / 2;
    for (const double d : {mid, std::nextafter(mid, kInf), std::nextafter(mid, -kInf)})
      TestFixture::expect_encode(d);
  }
}

TYPED_TEST(CodecEquivalence, EdgesOfTheFastPath) {
  using Fmt = TypeParam;
  using Ref = typename TestFixture::Ref;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Overflow threshold: max normal + half an ulp is a tie that rounds to inf
  // (65520 for F16); one double ulp below it stays at max normal.
  const double max_normal = Ref::to_double(Fmt::kPosInfBits - 1);
  const double threshold = max_normal + (max_normal - Ref::to_double(Fmt::kPosInfBits - 2)) / 2;
  if constexpr (std::is_same_v<Fmt, F16>) {
    EXPECT_EQ(threshold, 65520.0);
  }
  EXPECT_EQ(Fmt::from_double(threshold), Fmt::kPosInfBits);
  EXPECT_EQ(Fmt::from_double(std::nextafter(threshold, 0.0)), Fmt::kPosInfBits - 1);
  // Min normal / max subnormal edge: the tie between them rounds up to the
  // (even) min normal, just below it to the max subnormal.
  const double min_normal = Ref::to_double(1u << Ref::kMantBits);
  const double max_sub = Ref::to_double((1u << Ref::kMantBits) - 1);
  const double edge = (min_normal + max_sub) / 2;
  EXPECT_EQ(Fmt::from_double(edge), 1u << Ref::kMantBits);
  EXPECT_EQ(Fmt::from_double(std::nextafter(edge, 0.0)), (1u << Ref::kMantBits) - 1);
  for (const double d : {min_normal, std::nextafter(min_normal, 0.0),
                         std::nextafter(min_normal, kInf), max_sub, edge})
    TestFixture::expect_encode(d);
  // +-0, +-inf, double subnormals and the largest doubles.
  for (const double d : {0.0, kInf, std::numeric_limits<double>::denorm_min(),
                         std::nextafter(std::numeric_limits<double>::min(), 0.0),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max()})
    TestFixture::expect_encode(d);
  EXPECT_EQ(Fmt::from_double(-0.0), Fmt::kSignBit);
  // NaN of either sign and any payload encodes to the canonical quiet NaN.
  for (const u64 payload : {1ull, 2ull, 1ull << 51, (1ull << 52) - 1, 0x5A5A5ull}) {
    for (const u64 sign : {0ull, 1ull << 63}) {
      const double nan = std::bit_cast<double>(sign | (0x7FFull << 52) | payload);
      EXPECT_EQ(Fmt::from_double(nan), Fmt::kQuietNanBits);
      EXPECT_EQ(Ref::from_double(nan), Fmt::kQuietNanBits);
    }
  }
}

TYPED_TEST(CodecEquivalence, SeededRandomDoublesOverTheWholeExponentRange) {
  using Fmt = TypeParam;
  using Ref = typename TestFixture::Ref;
  Rng rng(0xC0DEC);
  for (int i = 0; i < 1'000'000; ++i) {
    u64 bits = rng.next_u64();
    if (i & 1) {
      // Half the draws land near the format's range, where rounding matters:
      // double exponent within 2^(1 - bias - mant - 4) .. 2^(bias + 4).
      const int lo = 1023 + 1 - Fmt::kBias - Ref::kMantBits - 4;
      const int hi = 1023 + Fmt::kBias + 4;
      const u64 exp = static_cast<u64>(lo) + rng.below(static_cast<u64>(hi - lo + 1));
      bits = (bits & ~(0x7FFull << 52)) | (exp << 52);
    }
    const double d = std::bit_cast<double>(bits);
    ASSERT_EQ(Fmt::from_double(d), Ref::from_double(d))
        << "bits=0x" << std::hex << bits;
  }
}

TEST(Packed, LaneHelpers) {
  const u32 r = pack16(0x1234, 0xABCD);
  EXPECT_EQ(lane16(r, 0), 0x1234);
  EXPECT_EQ(lane16(r, 1), 0xABCD);
  EXPECT_EQ(insert16(r, 0, 0xFFFF), 0xABCDFFFFu);
  const u32 b = pack8(1, 2, 3, 4);
  EXPECT_EQ(lane8(b, 0), 1);
  EXPECT_EQ(lane8(b, 3), 4);
  EXPECT_EQ(insert8(b, 2, 9), pack8(1, 2, 9, 4));
}

TEST(F32Classify, Basics) {
  EXPECT_EQ(classify_f32(f32_to_bits(1.0f)), static_cast<u32>(FpClass::kPosNormal));
  EXPECT_EQ(classify_f32(f32_to_bits(-0.0f)), static_cast<u32>(FpClass::kNegZero));
  EXPECT_EQ(classify_f32(0x7FC00000u), static_cast<u32>(FpClass::kQuietNan));
}

}  // namespace
}  // namespace tsim::sf
