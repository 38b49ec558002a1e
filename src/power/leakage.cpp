#include "power/leakage.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "support/assert.hpp"

// One loop, two clones: AVX2 where the CPU has it, baseline x86-64
// elsewhere, chosen once at load time. Neither uses FMA, and the build
// compiles this file with -ffp-contract=off, so both give the same bits.
// ThreadSanitizer instruments the load-time resolver that picks the clone,
// which then runs before the sanitizer is initialised and crashes, so
// TSan builds keep the baseline loop alone.
#if defined(__SANITIZE_THREAD__)
#define TADFA_LEAKAGE_NO_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TADFA_LEAKAGE_NO_CLONES
#endif
#endif
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(TADFA_LEAKAGE_NO_CLONES)
#if __has_attribute(target_clones)
#define TADFA_LEAKAGE_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef TADFA_LEAKAGE_CLONES
#define TADFA_LEAKAGE_CLONES
#endif

namespace tadfa::power {
namespace {

// Arguments whose exp is a normal double and whose 2^k scale is a normal
// power of two; everything else goes to std::exp.
constexpr double kMinArg = -708.0;
constexpr double kMaxArg = 709.0;

constexpr double kLog2e = 0x1.71547652b82fep+0;
// Adding 1.5·2^52 rounds to an integer (ties to even) and leaves it in
// the low mantissa bits.
constexpr double kShift = 0x1.8p+52;
// ln 2 split as in fdlibm: the high part has 21 trailing zero bits, so
// k·kLn2Hi is exact for |k| < 2^21.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// Taylor coefficients 1/n!, n = 2..13: on |r| <= ln2/2 the truncation
// error of the degree-13 polynomial is below 2^-57.
constexpr double kC2 = 1.0 / 2.0;
constexpr double kC3 = 1.0 / 6.0;
constexpr double kC4 = 1.0 / 24.0;
constexpr double kC5 = 1.0 / 120.0;
constexpr double kC6 = 1.0 / 720.0;
constexpr double kC7 = 1.0 / 5040.0;
constexpr double kC8 = 1.0 / 40320.0;
constexpr double kC9 = 1.0 / 362880.0;
constexpr double kC10 = 1.0 / 3628800.0;
constexpr double kC11 = 1.0 / 39916800.0;
constexpr double kC12 = 1.0 / 479001600.0;
constexpr double kC13 = 1.0 / 6227020800.0;

// x itself when it is in the kernel's range; otherwise a value != x (NaN
// stays NaN, which equals nothing).
double clamp_to_range(double x) {
  return std::min(std::max(x, kMinArg), kMaxArg);
}

// out[i] = p_ref · exp(coeff · (t[i] − t_ref)).
TADFA_LEAKAGE_CLONES
void leakage_loop(double p_ref, double coeff, double t_ref, const double* t,
                  double* out, std::size_t n) {
  // Counts arguments outside the kernel's range (a sum of 0s and 1s is
  // exact in any order).
  double outside = 0.0;
#pragma omp simd reduction(+ : outside)
  for (std::size_t i = 0; i < n; ++i) {
    const double x = coeff * (t[i] - t_ref);
    const double xc = clamp_to_range(x);
    outside += xc != x ? 1.0 : 0.0;
    // x = k·ln2 + r, |r| <= ln2/2.
    const double z = xc * kLog2e + kShift;
    const double k = z - kShift;
    const double r = (xc - k * kLn2Hi) - k * kLn2Lo;
    double q = kC13;
    q = q * r + kC12;
    q = q * r + kC11;
    q = q * r + kC10;
    q = q * r + kC9;
    q = q * r + kC8;
    q = q * r + kC7;
    q = q * r + kC6;
    q = q * r + kC5;
    q = q * r + kC4;
    q = q * r + kC3;
    q = q * r + kC2;
    const double exp_r = 1.0 + (r + (r * r) * q);
    // 2^k: k sits in the low bits of z; k + 1023 lies in [2, 2046], so
    // the shifted sum is a normal power of two.
    const double scale =
        std::bit_cast<double>((std::bit_cast<std::uint64_t>(z) + 1023) << 52);
    out[i] = p_ref * (exp_r * scale);
  }
  if (outside != 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = coeff * (t[i] - t_ref);
      if (clamp_to_range(x) != x) {
        out[i] = p_ref * std::exp(x);
      }
    }
  }
}

}  // namespace

void leakage_into(const machine::TechnologyParams& tech,
                  std::span<const double> temps_k, std::span<double> out) {
  TADFA_ASSERT(out.size() == temps_k.size());
  leakage_loop(tech.leakage_ref_w, tech.leakage_temp_coeff,
               tech.leakage_ref_temp_k, temps_k.data(), out.data(),
               temps_k.size());
}

}  // namespace tadfa::power
