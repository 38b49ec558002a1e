// Unit tests for src/power: access traces, windowing, dynamic power,
// temperature-dependent leakage, gating, trace energy, and the leakage
// kernel's accuracy and bit stability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "machine/machine_config.hpp"
#include "power/access_trace.hpp"
#include "power/leakage.hpp"
#include "power/model.hpp"

namespace tadfa::power {
namespace {

machine::RegisterFileConfig cfg() {
  return machine::RegisterFileConfig::small_config();
}

TEST(AccessTrace, TotalsSplitReadsWrites) {
  AccessTrace t(16);
  t.record(0, 3, false);
  t.record(1, 3, false);
  t.record(2, 3, true);
  t.record(3, 7, true);
  const auto totals = t.totals();
  EXPECT_EQ(totals[3].reads, 2u);
  EXPECT_EQ(totals[3].writes, 1u);
  EXPECT_EQ(totals[3].total(), 3u);
  EXPECT_EQ(totals[7].writes, 1u);
  EXPECT_EQ(totals[0].total(), 0u);
}

TEST(AccessTrace, WindowSelectsHalfOpenRange) {
  AccessTrace t(16);
  t.record(0, 1, false);
  t.record(5, 1, false);
  t.record(10, 1, false);
  const auto w = t.window(5, 10);
  EXPECT_EQ(w[1].reads, 1u);
  const auto all = t.window(0, 11);
  EXPECT_EQ(all[1].reads, 3u);
  const auto none = t.window(11, 20);
  EXPECT_EQ(none[1].reads, 0u);
}

TEST(AccessTrace, DurationRoundTrip) {
  AccessTrace t(4);
  t.set_duration_cycles(1234);
  EXPECT_EQ(t.duration_cycles(), 1234u);
}

TEST(PowerModel, AccessEnergyUsesReadWriteCosts) {
  const PowerModel m(cfg());
  const auto& tech = cfg().tech;
  AccessCounts c;
  c.reads = 3;
  c.writes = 2;
  EXPECT_DOUBLE_EQ(m.access_energy(c),
                   3 * tech.read_energy_j + 2 * tech.write_energy_j);
}

TEST(PowerModel, DynamicPowerAveragesOverWindow) {
  const PowerModel m(cfg());
  std::vector<AccessCounts> counts(16);
  counts[2].reads = 100;
  const auto p = m.dynamic_power(counts, 100);
  // 100 reads in 100 cycles = 1 read per cycle.
  const double expected =
      cfg().tech.read_energy_j / cfg().tech.cycle_seconds();
  EXPECT_NEAR(p[2], expected, expected * 1e-9);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
}

TEST(PowerModel, DynamicPowerScalesInverselyWithWindow) {
  const PowerModel m(cfg());
  std::vector<AccessCounts> counts(16);
  counts[0].writes = 10;
  const auto p1 = m.dynamic_power(counts, 100);
  const auto p2 = m.dynamic_power(counts, 200);
  EXPECT_NEAR(p1[0], 2 * p2[0], 1e-15);
}

TEST(PowerModel, LeakageTracksTemperature) {
  const PowerModel m(cfg());
  const machine::Floorplan fp(cfg());
  std::vector<double> cold(16, 320.0);
  std::vector<double> hot(16, 360.0);
  const auto pl_cold = m.leakage_power(fp, cold);
  const auto pl_hot = m.leakage_power(fp, hot);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_GT(pl_hot[r], pl_cold[r]);
  }
}

TEST(PowerModel, GatedBankLeaksFraction) {
  const PowerModel m(cfg());  // small config: 2 banks over 4 cols
  const machine::Floorplan fp(cfg());
  std::vector<double> temps(16, 340.0);
  std::vector<bool> gated{true, false};
  const auto p = m.leakage_power(fp, temps, gated);
  const double nominal = cfg().tech.leakage_at(340.0);
  for (machine::PhysReg r = 0; r < 16; ++r) {
    if (fp.bank_of(r) == 0) {
      EXPECT_NEAR(p[r], nominal * PowerModel::gated_leakage_fraction, 1e-15);
    } else {
      EXPECT_NEAR(p[r], nominal, 1e-15);
    }
  }
}

TEST(PowerModel, TraceEnergyCombinesDynamicAndLeakage) {
  const PowerModel m(cfg());
  AccessTrace t(16);
  t.record(0, 0, true);
  t.set_duration_cycles(1000);
  const double e = m.trace_energy(t, 340.0);
  const double dynamic = cfg().tech.write_energy_j;
  EXPECT_GT(e, dynamic);  // leakage adds on top
  // Gating both banks cuts the leakage share.
  const double e_gated = m.trace_energy(t, 340.0, {true, true});
  EXPECT_LT(e_gated, e);
  EXPECT_GT(e_gated, dynamic * 0.999);
}

}  // namespace
}  // namespace tadfa::power

// Appended: memory-hierarchy energy accounting.
namespace tadfa::power {
namespace {

TEST(PowerModel, MemoryEnergyCountsTraffic) {
  const PowerModel m(cfg());
  EXPECT_DOUBLE_EQ(m.memory_energy(0, 0), 0.0);
  const double one = cfg().tech.memory_access_energy_j;
  EXPECT_DOUBLE_EQ(m.memory_energy(10, 5), 15 * one);
}

TEST(PowerModel, MemoryAccessCostsMoreThanRegisterAccess) {
  // The premise of the spill/promotion energy trade: a cache access is an
  // order of magnitude more expensive than a register access.
  const auto& tech = cfg().tech;
  EXPECT_GT(tech.memory_access_energy_j, 5 * tech.read_energy_j);
}

}  // namespace
}  // namespace tadfa::power

// The leakage kernel: accuracy, exact identities, fallback, batch vs
// scalar, and pinned output bits.
namespace tadfa::power {
namespace {

// |y − exact| in units of the last place of the double nearest `exact`.
double ulp_error(double y, long double exact) {
  const double nearest = static_cast<double>(exact);
  const double ulp =
      std::nextafter(std::fabs(nearest), INFINITY) - std::fabs(nearest);
  return static_cast<double>(
      std::fabs(static_cast<long double>(y) - exact) / ulp);
}

// Leakage with P_ref = 1, c = 1, T_ref = 0 is exp itself.
machine::TechnologyParams unit_exp_params() {
  machine::TechnologyParams t;
  t.leakage_ref_w = 1.0;
  t.leakage_temp_coeff = 1.0;
  t.leakage_ref_temp_k = 0.0;
  return t;
}

std::vector<double> batch_exp(const std::vector<double>& xs) {
  std::vector<double> ys(xs.size());
  leakage_into(unit_exp_params(), xs, ys);
  return ys;
}

// One argument at a time: the loop's scalar remainder, not its vector body.
double kernel_exp(double x) {
  double y = 0.0;
  leakage_into(unit_exp_params(), {&x, 1}, {&y, 1});
  return y;
}

// Largest ulp_error of the batched kernel against long-double exp.
double worst_ulp_error(const std::vector<double>& xs) {
  const std::vector<double> ys = batch_exp(xs);
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    worst = std::max(
        worst, ulp_error(ys[i], std::exp(static_cast<long double>(xs[i]))));
  }
  return worst;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(LeakageKernel, WithinOneUlpOfExpOnADenseSweepNearZero) {
  // [−2, 5] in steps of 2^-14: where c·(T − T_ref) lives, and beyond.
  std::vector<double> xs;
  for (int i = 0; i <= 7 * 16384; ++i) {
    xs.push_back(-2.0 + static_cast<double>(i) * 0x1p-14);
  }
  EXPECT_LE(worst_ulp_error(xs), 1.0);
}

TEST(LeakageKernel, WithinOneUlpOfExpOverItsWholeRange) {
  std::mt19937_64 rng(20090726);
  std::uniform_real_distribution<double> arg(-708.0, 709.0);
  std::vector<double> xs(200000);
  for (double& x : xs) {
    x = arg(rng);
  }
  xs.push_back(-708.0);
  xs.push_back(709.0);
  EXPECT_LE(worst_ulp_error(xs), 1.0);
}

TEST(LeakageKernel, ExpOfZeroIsOneAndLeakageAtTheReferenceIsExact) {
  EXPECT_EQ(kernel_exp(0.0), 1.0);
  EXPECT_EQ(kernel_exp(-0.0), 1.0);
  for (const machine::MachineConfig& m :
       machine::default_machine_registry().entries()) {
    const machine::TechnologyParams& t = m.rf.tech;
    EXPECT_EQ(t.leakage_at(t.leakage_ref_temp_k), t.leakage_ref_w) << m.name;
  }
}

TEST(LeakageKernel, ArgumentsOutsideItsRangeGoToStdExp) {
  const double cases[] = {-INFINITY, INFINITY, NAN, -NAN, -708.0000001,
                          709.0000001, -745.2, -800.0, 709.7, 710.0, 1e300,
                          -1e300};
  std::vector<double> xs(std::begin(cases), std::end(cases));
  // In a batch too, among in-range neighbours that keep the kernel's bits.
  const std::vector<double> ys = batch_exp(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double want = std::exp(xs[i]);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(kernel_exp(xs[i]))) << xs[i];
      EXPECT_TRUE(std::isnan(ys[i])) << xs[i];
    } else {
      EXPECT_EQ(bits_of(kernel_exp(xs[i])), bits_of(want)) << xs[i];
      EXPECT_EQ(bits_of(ys[i]), bits_of(want)) << xs[i];
    }
  }
  std::vector<double> mixed;
  for (int i = 0; i < 37; ++i) {
    mixed.push_back(i % 5 == 0 ? 800.0 : 0.01 * static_cast<double>(i));
  }
  const std::vector<double> mixed_out = batch_exp(mixed);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const double want = i % 5 == 0 ? std::exp(mixed[i]) : kernel_exp(mixed[i]);
    EXPECT_EQ(bits_of(mixed_out[i]), bits_of(want)) << i;
  }
}

TEST(LeakageKernel, BatchedLeakagePowerEqualsLeakageAtBitForBit) {
  for (const char* name : {"default", "large", "dense45", "hotbox"}) {
    const machine::MachineConfig& m = *machine::find_machine(name);
    const machine::Floorplan fp(m.rf);
    const PowerModel model(m.rf);
    std::vector<double> temps(fp.num_registers());
    for (std::size_t r = 0; r < temps.size(); ++r) {
      temps[r] = 330.0 + 0.173 * static_cast<double>(r);
    }
    std::vector<bool> gated(fp.num_banks(), false);
    gated[0] = true;
    const std::vector<double> ungated_out = model.leakage_power(fp, temps);
    const std::vector<double> gated_out =
        model.leakage_power(fp, temps, gated);
    for (machine::PhysReg r = 0; r < temps.size(); ++r) {
      const double one = m.rf.tech.leakage_at(temps[r]);
      EXPECT_EQ(bits_of(ungated_out[r]), bits_of(one)) << name << " " << r;
      const double want = fp.bank_of(r) == 0
                              ? one * PowerModel::gated_leakage_fraction
                              : one;
      EXPECT_EQ(bits_of(gated_out[r]), bits_of(want)) << name << " " << r;
    }
  }
}

// Recorded once from the kernel. Any change of its arithmetic (an FMA
// contraction, a reordered polynomial, an ISA clone that disagrees) moves
// these bits. The inputs are exact multiples of powers of two, so building
// them involves no rounding that contraction could change either.
TEST(LeakageKernel, PinnedDigestOfKernelOutputs) {
  std::vector<double> xs;
  for (int i = -4096; i <= 4096; ++i) {
    xs.push_back(static_cast<double>(i) * 0x1p-10);  // [−4, 4]
  }
  for (int i = -708; i <= 709; ++i) {
    xs.push_back(static_cast<double>(i) + 0.375);  // whole range
  }
  std::vector<double> temps;
  for (int i = 0; i < 4096; ++i) {
    temps.push_back(300.0 + static_cast<double>(i) * 0x1p-6);  // 300–364 K
  }
  std::vector<double> leak(temps.size());
  leakage_into(machine::TechnologyParams{}, temps, leak);

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::vector<double>& out : {batch_exp(xs), leak}) {
    for (double y : out) {
      h ^= bits_of(y);
      h *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(h, 0x4216f098e8f02db7ull) << std::hex << "digest=0x" << h;
}

}  // namespace
}  // namespace tadfa::power
