// Property and unit tests for the RC thermal grid: physical invariants
// (cooling toward the substrate, monotone heating, symmetry), steady-state
// consistency, subdivision behavior, and map statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "support/statistics.hpp"
#include "thermal/grid.hpp"
#include "thermal/map_stats.hpp"

namespace tadfa::thermal {
namespace {

machine::Floorplan small_fp() {
  return machine::Floorplan(machine::RegisterFileConfig::small_config());
}

machine::Floorplan default_fp() {
  return machine::Floorplan(machine::RegisterFileConfig::default_config());
}

std::vector<double> no_power(const machine::Floorplan& fp) {
  return std::vector<double>(fp.num_registers(), 0.0);
}

TEST(ThermalGrid, InitialStateAtSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  const ThermalState s = grid.initial_state();
  for (double t : s.node_temps) {
    EXPECT_DOUBLE_EQ(t, grid.substrate_temp());
  }
}

TEST(ThermalGrid, NoPowerStaysAtSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  grid.step(s, no_power(fp), 1e-3);
  for (double t : s.node_temps) {
    EXPECT_NEAR(t, grid.substrate_temp(), 1e-9);
  }
}

TEST(ThermalGrid, HeatingRaisesPoweredCell) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  auto p = no_power(fp);
  p[5] = 1e-3;  // 1 mW on register 5
  grid.step(s, p, 1e-4);
  const auto temps = grid.register_temps(s);
  EXPECT_GT(temps[5], grid.substrate_temp());
  // The powered cell is the hottest.
  for (std::size_t r = 0; r < temps.size(); ++r) {
    EXPECT_LE(temps[r], temps[5]);
  }
}

TEST(ThermalGrid, CoolingIsMonotoneTowardSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  auto p = no_power(fp);
  p[0] = 2e-3;
  grid.step(s, p, 1e-4);
  const double hot = grid.register_temps(s)[0];

  // Remove power; each step must strictly reduce the excess temperature.
  // Steps are a couple of RC time constants long (the grid settles within
  // ~100 ns at this geometry), so the decay is visible but not complete.
  double prev = hot;
  for (int i = 0; i < 5; ++i) {
    grid.step(s, no_power(fp), 2 * grid.max_stable_dt());
    const double now = grid.register_temps(s)[0];
    EXPECT_LT(now, prev);
    EXPECT_GE(now, grid.substrate_temp() - 1e-9);
    prev = now;
  }
}

TEST(ThermalGrid, TransientApproachesSteadyState) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  auto p = no_power(fp);
  p[5] = 1e-3;
  p[10] = 0.5e-3;

  const ThermalState steady = grid.steady_state(p);
  ThermalState transient = grid.initial_state();
  // 1 ms is far beyond the RC settling time (~ tens of µs).
  grid.step(transient, p, 1e-3);
  for (std::size_t i = 0; i < steady.node_temps.size(); ++i) {
    EXPECT_NEAR(transient.node_temps[i], steady.node_temps[i], 1e-3);
  }
}

TEST(ThermalGrid, SteadyStateLinearInPower) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  auto p = no_power(fp);
  p[3] = 1e-3;
  const ThermalState one = grid.steady_state(p);
  for (auto& w : p) {
    w *= 2;
  }
  const ThermalState two = grid.steady_state(p);
  for (std::size_t i = 0; i < one.node_temps.size(); ++i) {
    const double d1 = one.node_temps[i] - grid.substrate_temp();
    const double d2 = two.node_temps[i] - grid.substrate_temp();
    EXPECT_NEAR(d2, 2 * d1, 1e-6);
  }
}

TEST(ThermalGrid, SymmetricPowerGivesSymmetricMap) {
  const auto fp = small_fp();  // 4x4
  const ThermalGrid grid(fp);
  auto p = no_power(fp);
  // Power the four corners equally.
  p[fp.at(0, 0)] = 1e-3;
  p[fp.at(0, 3)] = 1e-3;
  p[fp.at(3, 0)] = 1e-3;
  p[fp.at(3, 3)] = 1e-3;
  // Gauss-Seidel sweeps in a fixed order, leaving nK-level asymmetry.
  const auto temps = grid.register_temps(grid.steady_state(p));
  EXPECT_NEAR(temps[fp.at(0, 0)], temps[fp.at(0, 3)], 1e-6);
  EXPECT_NEAR(temps[fp.at(0, 0)], temps[fp.at(3, 0)], 1e-6);
  EXPECT_NEAR(temps[fp.at(0, 0)], temps[fp.at(3, 3)], 1e-6);
  EXPECT_NEAR(temps[fp.at(1, 1)], temps[fp.at(2, 2)], 1e-6);
}

TEST(ThermalGrid, ConcentratedPowerHotterPeakThanSpread) {
  // The physical core of Fig. 1: same total power, concentrated vs spread.
  const auto fp = default_fp();
  const ThermalGrid grid(fp);
  const double total = 8e-3;

  auto concentrated = no_power(fp);
  for (int i = 0; i < 8; ++i) {
    concentrated[static_cast<std::size_t>(i)] = total / 8;  // one row corner
  }
  auto spread = no_power(fp);
  for (std::size_t r = 0; r < spread.size(); ++r) {
    spread[r] = total / static_cast<double>(spread.size());
  }

  const auto tc = grid.register_temps(grid.steady_state(concentrated));
  const auto ts = grid.register_temps(grid.steady_state(spread));
  const MapStats sc = compute_map_stats(fp, tc);
  const MapStats ss = compute_map_stats(fp, ts);
  EXPECT_GT(sc.peak_k, ss.peak_k);
  EXPECT_GT(sc.max_gradient_k, ss.max_gradient_k * 2);
  EXPECT_GT(sc.stddev_k, ss.stddev_k);
}

TEST(ThermalGrid, SubdivisionRefinesWithoutChangingTotals) {
  const auto fp = small_fp();
  const ThermalGrid coarse(fp, 1);
  const ThermalGrid fine(fp, 3);
  EXPECT_EQ(coarse.node_count(), 16u);
  EXPECT_EQ(fine.node_count(), 16u * 9u);

  auto p = no_power(fp);
  p[5] = 1e-3;
  const auto tc = coarse.register_temps(coarse.steady_state(p));
  const auto tf = fine.register_temps(fine.steady_state(p));
  // Same physics at cell granularity: temperatures agree to ~15%
  // of the local temperature rise.
  for (std::size_t r = 0; r < tc.size(); ++r) {
    const double rise_c = tc[r] - coarse.substrate_temp();
    const double rise_f = tf[r] - fine.substrate_temp();
    EXPECT_NEAR(rise_f, rise_c, 0.15 * std::max(rise_c, 1e-6) + 1e-6);
  }
}

TEST(ThermalGrid, NodesOfPartitionTheGrid) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp, 2);
  std::vector<int> owner_count(grid.node_count(), 0);
  for (machine::PhysReg r = 0; r < fp.num_registers(); ++r) {
    for (std::size_t n : grid.nodes_of(r)) {
      ++owner_count[n];
      EXPECT_EQ(grid.register_of(n), r);
    }
    EXPECT_EQ(grid.nodes_of(r).size(), 4u);
  }
  for (int c : owner_count) {
    EXPECT_EQ(c, 1);
  }
}

TEST(ThermalGrid, StoredEnergyZeroAtSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  EXPECT_DOUBLE_EQ(grid.stored_energy(grid.initial_state()), 0.0);
}

TEST(ThermalGrid, EnergyBalanceDuringHeating) {
  // Injected energy = stored energy + energy leaked to substrate; with a
  // short step and small temperature rise, stored ≈ injected.
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  auto p = no_power(fp);
  p[5] = 1e-3;
  const double dt = grid.max_stable_dt();  // single tiny step
  grid.step(s, p, dt);
  const double injected = 1e-3 * dt;
  const double stored = grid.stored_energy(s);
  EXPECT_GT(stored, 0.0);
  EXPECT_LE(stored, injected * 1.0000001);
  EXPECT_GT(stored, injected * 0.5);  // most of it still stored
}

TEST(ThermalGrid, MaxStableDtPositiveAndScaleDependent) {
  const auto fp = small_fp();
  const ThermalGrid g1(fp, 1);
  const ThermalGrid g2(fp, 2);
  EXPECT_GT(g1.max_stable_dt(), 0.0);
  // Finer grids need smaller steps.
  EXPECT_LT(g2.max_stable_dt(), g1.max_stable_dt());
}

TEST(ThermalGrid, StepWithZeroDtIsIdentity) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  s.node_temps[0] += 5;
  const ThermalState before = s;
  grid.step(s, no_power(fp), 0.0);
  EXPECT_EQ(s, before);
}

// --------------------------------------------------------- fast-path tiers ----

std::vector<double> hotspot_power(const machine::Floorplan& fp) {
  auto p = no_power(fp);
  p[0] = 2e-3;
  p[1] = 1e-3;
  p[5] = 1.5e-3;
  return p;
}

std::vector<StepKernel> fast_kernels() {
  std::vector<StepKernel> kernels = {StepKernel::kSimd};
  if (ThermalGrid::kernel_available(StepKernel::kAvx2)) {
    kernels.push_back(StepKernel::kAvx2);
  }
  return kernels;
}

TEST(StepKernel, ScalarTiersAlwaysAvailable) {
  EXPECT_TRUE(ThermalGrid::kernel_available(StepKernel::kReference));
  EXPECT_TRUE(ThermalGrid::kernel_available(StepKernel::kSimd));
}

TEST(StepKernel, UnavailableTierDegradesToSimdNotReference) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp, 1, StepKernel::kAvx2);
  if (ThermalGrid::kernel_available(StepKernel::kAvx2)) {
    EXPECT_EQ(grid.step_kernel(), StepKernel::kAvx2);
  } else {
    // Never silently fall back to the slow reference tier.
    EXPECT_EQ(grid.step_kernel(), StepKernel::kSimd);
  }
}

TEST(StepKernel, FastKernelsTrackReferenceAcrossSubdivisions) {
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u, 4u}) {
    const ThermalGrid grid(fp, sub, StepKernel::kReference);
    const auto p = hotspot_power(fp);
    const double dt = 16.0 * grid.max_stable_dt();
    ThermalState ref = grid.initial_state();
    for (int i = 0; i < 10; ++i) {
      grid.step_with(StepKernel::kReference, ref, p, dt);
    }
    for (StepKernel kernel : fast_kernels()) {
      ThermalState fast = grid.initial_state();
      for (int i = 0; i < 10; ++i) {
        grid.step_with(kernel, fast, p, dt);
      }
      for (std::size_t i = 0; i < ref.node_temps.size(); ++i) {
        EXPECT_NEAR(fast.node_temps[i], ref.node_temps[i], 1e-6)
            << "sub=" << sub << " kernel=" << to_string(kernel)
            << " node=" << i;
      }
    }
  }
}

TEST(StepKernel, EnergyBalanceHoldsOnEveryKernel) {
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u, 4u}) {
    const ThermalGrid grid(fp, sub, StepKernel::kReference);
    auto p = no_power(fp);
    p[5] = 1e-3;
    const double dt = grid.max_stable_dt();
    const double injected = 1e-3 * dt;
    for (StepKernel kernel :
         {StepKernel::kReference, StepKernel::kSimd, StepKernel::kAvx2}) {
      if (!ThermalGrid::kernel_available(kernel)) {
        continue;
      }
      ThermalState s = grid.initial_state();
      grid.step_with(kernel, s, p, dt);
      const double stored = grid.stored_energy(s);
      EXPECT_GT(stored, 0.0) << to_string(kernel);
      EXPECT_LE(stored, injected * 1.0000001)
          << "sub=" << sub << " kernel=" << to_string(kernel);
      EXPECT_GT(stored, injected * 0.5)
          << "sub=" << sub << " kernel=" << to_string(kernel);
    }
  }
}

TEST(StepKernel, TransientApproachesSteadyStateOnFastTiers) {
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u}) {
    for (StepKernel kernel : fast_kernels()) {
      const ThermalGrid grid(fp, sub, kernel);
      const auto p = hotspot_power(fp);
      const ThermalState steady = grid.steady_state(p);
      ThermalState transient = grid.initial_state();
      grid.step(transient, p, 1e-3);  // far beyond the RC settling time
      for (std::size_t i = 0; i < steady.node_temps.size(); ++i) {
        EXPECT_NEAR(transient.node_temps[i], steady.node_temps[i], 1e-3)
            << "sub=" << sub << " kernel=" << to_string(kernel);
      }
    }
  }
}

TEST(StepKernel, ZeroDtIsIdentityOnEveryKernel) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  for (StepKernel kernel :
       {StepKernel::kReference, StepKernel::kSimd, StepKernel::kAvx2}) {
    if (!ThermalGrid::kernel_available(kernel)) {
      continue;
    }
    ThermalState s = grid.initial_state();
    s.node_temps[0] += 5;
    const ThermalState before = s;
    grid.step_with(kernel, s, no_power(fp), 0.0);
    EXPECT_EQ(s, before) << to_string(kernel);
  }
}

TEST(SteadyState, ActiveSetMatchesFullSweeps) {
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u}) {
    const ThermalGrid ref_grid(fp, sub, StepKernel::kReference);
    const ThermalGrid fast_grid(fp, sub, StepKernel::kSimd);
    const auto p = hotspot_power(fp);
    SteadyStateOptions opts;
    SteadyStateInfo ref_info;
    const ThermalState ref = ref_grid.steady_state(p, opts, &ref_info);
    SteadyStateInfo fast_info;
    const ThermalState fast = fast_grid.steady_state(p, opts, &fast_info);
    EXPECT_TRUE(ref_info.converged);
    EXPECT_TRUE(fast_info.converged);
    EXPECT_GT(fast_info.relaxations, 0u);
    for (std::size_t i = 0; i < ref.node_temps.size(); ++i) {
      EXPECT_NEAR(fast.node_temps[i], ref.node_temps[i], 1e-5)
          << "sub=" << sub << " node=" << i;
    }
  }
}

TEST(SteadyState, WarmStartConvergesFasterToTheSameAnswer) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp, 2, StepKernel::kSimd);
  const auto p = hotspot_power(fp);
  SteadyStateOptions opts;
  const ThermalState base = grid.steady_state(p, opts, nullptr);

  auto bumped = p;
  for (double& w : bumped) {
    w *= 1.05;
  }
  SteadyStateInfo cold_info;
  const ThermalState cold = grid.steady_state(bumped, opts, &cold_info);
  SteadyStateOptions warm_opts;
  warm_opts.warm_start = &base;
  SteadyStateInfo warm_info;
  const ThermalState warm = grid.steady_state(bumped, warm_opts, &warm_info);

  EXPECT_TRUE(cold_info.converged);
  EXPECT_TRUE(warm_info.converged);
  EXPECT_LT(warm_info.sweeps, cold_info.sweeps);
  for (std::size_t i = 0; i < cold.node_temps.size(); ++i) {
    EXPECT_NEAR(warm.node_temps[i], cold.node_temps[i], 1e-5);
  }
}

TEST(Batch, StepBatchMatchesSequentialReferenceBitForBit) {
  const auto fp = small_fp();
  // A fast-tier grid on purpose: step_batch promises reference math
  // regardless of the grid's configured kernel.
  const ThermalGrid grid(fp, 2, StepKernel::kSimd);
  std::vector<std::vector<double>> powers;
  powers.push_back(hotspot_power(fp));
  powers.push_back(no_power(fp));
  auto third = no_power(fp);
  third[7] = 3e-3;
  powers.push_back(third);

  const double dt = 8.0 * grid.max_stable_dt();
  std::vector<ThermalState> batch(3, grid.initial_state());
  std::vector<ThermalState> seq(3, grid.initial_state());
  for (int call = 0; call < 3; ++call) {
    grid.step_batch(batch, powers, dt);
    for (std::size_t lane = 0; lane < seq.size(); ++lane) {
      grid.step_with(StepKernel::kReference, seq[lane], powers[lane], dt);
    }
  }
  for (std::size_t lane = 0; lane < seq.size(); ++lane) {
    EXPECT_EQ(batch[lane], seq[lane]) << "lane=" << lane;
  }
}

TEST(Batch, SteadyStateBatchMatchesSequentialReferenceBitForBit) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp, 2, StepKernel::kSimd);
  const ThermalGrid ref_grid(fp, 2, StepKernel::kReference);
  std::vector<std::vector<double>> powers;
  powers.push_back(hotspot_power(fp));
  auto second = no_power(fp);
  second[3] = 2e-3;
  powers.push_back(second);

  std::vector<SteadyStateInfo> infos;
  const auto batch = grid.steady_state_batch(powers, 1e-9, nullptr, &infos);
  ASSERT_EQ(batch.size(), powers.size());
  ASSERT_EQ(infos.size(), powers.size());
  SteadyStateOptions opts;
  for (std::size_t lane = 0; lane < powers.size(); ++lane) {
    SteadyStateInfo seq_info;
    const ThermalState seq =
        ref_grid.steady_state(powers[lane], opts, &seq_info);
    EXPECT_EQ(batch[lane], seq) << "lane=" << lane;
    EXPECT_EQ(infos[lane].sweeps, seq_info.sweeps) << "lane=" << lane;
    EXPECT_TRUE(infos[lane].converged) << "lane=" << lane;
  }
}

// ------------------------------------------------ reference golden digest ----

// FNV-1a over the bit patterns of every node temperature.
std::uint64_t state_digest(const ThermalState& s, std::uint64_t h) {
  for (double t : s.node_temps) {
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

using Power = std::vector<double>;

// Per-register powers that change with every call and leave some cells
// unpowered.
Power varying_power(const machine::Floorplan& fp, int call) {
  Power p(fp.num_registers(), 0.0);
  for (std::size_t r = 0; r < p.size(); ++r) {
    const std::size_t level = (r * 7 + static_cast<std::size_t>(call) * 3) % 11;
    p[r] = level < 3 ? 0.0 : 2.5e-4 * static_cast<double>(level);
  }
  return p;
}

// A fixed sequence of reference steps: dt = 0, below the stable step,
// exactly one stable step, a few substeps, and many substeps.
template <typename StepFn>
std::uint64_t reference_sequence_digest(const ThermalGrid& grid,
                                        StepFn&& step) {
  const double stable = grid.max_stable_dt();
  const double dts[] = {0.0,     0.37 * stable, stable, 2.5 * stable,
                        3.3e-10, 41.7 * stable, 0.0,    7.25 * stable};
  ThermalState s = grid.initial_state();
  std::uint64_t h = 0xcbf29ce484222325ull;
  int call = 0;
  for (double dt : dts) {
    step(s, varying_power(grid.floorplan(), call), dt);
    h = state_digest(s, h);
    ++call;
  }
  return h;
}

// Recorded from the scalar reference loop that predates the row-structured
// kernel. Only + − × ÷ are involved, so the digest holds across build types
// as long as the compiler does not contract into FMA.
TEST(ReferenceKernel, GoldenDigestAcrossMachinesAndSubdivisions) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA contraction changes the reference kernel's rounding";
#endif
  struct Case {
    machine::RegisterFileConfig config;
    unsigned subdivision;
    std::uint64_t golden;
  };
  const Case cases[] = {
      {machine::RegisterFileConfig::default_config(), 1, 0x0c4518374f41b64bull},
      {machine::RegisterFileConfig::default_config(), 2, 0xd23cc2992598cc54ull},
      {machine::RegisterFileConfig::default_config(), 4, 0xf645ca231f54ccdaull},
      {machine::RegisterFileConfig::large_config(), 1, 0x34c8fa14e5b0ad00ull},
      {machine::RegisterFileConfig::large_config(), 2, 0xe234b871f40248fcull},
      {machine::RegisterFileConfig::large_config(), 4, 0xa0288c8bc9366f30ull},
  };
  for (const Case& c : cases) {
    const machine::Floorplan fp(c.config);
    // A fast-tier grid on purpose: step_with(kReference) must not depend
    // on the grid's constructed tier.
    const ThermalGrid grid(fp, c.subdivision, StepKernel::kSimd);
    auto step = [&](ThermalState& s, const Power& p, double dt) {
      grid.step_with(StepKernel::kReference, s, p, dt);
    };
    const std::uint64_t digest = reference_sequence_digest(grid, step);
    EXPECT_EQ(digest, c.golden)
        << "registers=" << c.config.num_registers
        << " subdivision=" << c.subdivision << std::hex << " digest=0x"
        << digest;
  }
}

TEST(ReferenceKernel, RawBufferAdvanceMatchesStepWithBitForBit) {
  // plan_step + spread_power_into + advance on caller buffers is the same
  // stepping path as step_with, on every tier.
  std::vector<StepKernel> kernels = fast_kernels();
  kernels.push_back(StepKernel::kReference);
  for (const auto& config : {machine::RegisterFileConfig::default_config(),
                             machine::RegisterFileConfig::large_config()}) {
    const machine::Floorplan fp(config);
    for (unsigned sub : {1u, 2u, 4u}) {
      const ThermalGrid grid(fp, sub, StepKernel::kReference);
      for (StepKernel kernel : kernels) {
        std::vector<double> node_power(grid.node_count());
        std::vector<double> flux(grid.node_count());
        auto step = [&](ThermalState& s, const Power& p, double dt) {
          grid.step_with(kernel, s, p, dt);
        };
        auto advance = [&](ThermalState& s, const Power& p, double dt) {
          grid.spread_power_into(p, node_power.data());
          grid.advance(kernel, s.node_temps.data(), node_power.data(),
                       grid.plan_step(dt), flux.data());
        };
        EXPECT_EQ(reference_sequence_digest(grid, advance),
                  reference_sequence_digest(grid, step))
            << "registers=" << config.num_registers << " sub=" << sub
            << " kernel=" << to_string(kernel);
      }
      // register_temps_into is what register_temps returns.
      ThermalState s = grid.initial_state();
      grid.step(s, varying_power(fp, 1), 3.0 * grid.max_stable_dt());
      std::vector<double> temps(fp.num_registers());
      grid.register_temps_into(s.node_temps.data(), temps.data());
      EXPECT_EQ(temps, grid.register_temps(s));
    }
  }
}

TEST(ReferenceKernel, PlanStepSplitsAtTheStableStep) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp, 2);
  const double stable = grid.max_stable_dt();
  EXPECT_EQ(grid.plan_step(0.0).substeps, 0);
  EXPECT_EQ(grid.plan_step(0.5 * stable).substeps, 1);
  EXPECT_EQ(grid.plan_step(0.5 * stable).h, 0.5 * stable);
  EXPECT_EQ(grid.plan_step(stable).substeps, 1);
  const StepPlan many = grid.plan_step(7.5 * stable);
  EXPECT_EQ(many.substeps, 8);
  EXPECT_EQ(many.h, 7.5 * stable / 8);
}

TEST(ConfigDigest, FoldsKernelTierOnlyWhenNotReference) {
  const auto fp = small_fp();
  const ThermalGrid ref_a(fp, 1, StepKernel::kReference);
  const ThermalGrid ref_b(fp, 1, StepKernel::kReference);
  const ThermalGrid simd_a(fp, 1, StepKernel::kSimd);
  const ThermalGrid simd_b(fp, 1, StepKernel::kSimd);
  EXPECT_EQ(ref_a.config_digest(), ref_b.config_digest());
  EXPECT_EQ(simd_a.config_digest(), simd_b.config_digest());
  EXPECT_NE(ref_a.config_digest(), simd_a.config_digest());
  if (ThermalGrid::kernel_available(StepKernel::kAvx2)) {
    const ThermalGrid avx(fp, 1, StepKernel::kAvx2);
    EXPECT_NE(avx.config_digest(), ref_a.config_digest());
    EXPECT_NE(avx.config_digest(), simd_a.config_digest());
  }
}

// -------------------------------------------------------------- map stats ----

TEST(MapStats, UniformMapHasNoGradient) {
  const auto fp = small_fp();
  const std::vector<double> temps(fp.num_registers(), 350.0);
  const MapStats s = compute_map_stats(fp, temps);
  EXPECT_DOUBLE_EQ(s.peak_k, 350.0);
  EXPECT_DOUBLE_EQ(s.range_k, 0.0);
  EXPECT_DOUBLE_EQ(s.max_gradient_k, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev_k, 0.0);
}

TEST(MapStats, GradientIsNeighborDelta) {
  const auto fp = small_fp();
  std::vector<double> temps(fp.num_registers(), 340.0);
  temps[fp.at(1, 1)] = 345.0;  // spike: 5 K above its 4 neighbors
  const MapStats s = compute_map_stats(fp, temps);
  EXPECT_DOUBLE_EQ(s.max_gradient_k, 5.0);
  EXPECT_DOUBLE_EQ(s.peak_k, 345.0);
  EXPECT_DOUBLE_EQ(s.range_k, 5.0);
}

TEST(MapStats, HotspotsAboveSigmaThreshold) {
  const auto fp = small_fp();
  std::vector<double> temps(fp.num_registers(), 340.0);
  temps[3] = 360.0;
  const auto hs = hotspots(fp, temps, 1.5);
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_EQ(hs[0], 3u);
}

TEST(MapStats, NoHotspotsOnFlatMap) {
  const auto fp = small_fp();
  const std::vector<double> temps(fp.num_registers(), 340.0);
  EXPECT_TRUE(hotspots(fp, temps).empty());
}

}  // namespace
}  // namespace tadfa::thermal
