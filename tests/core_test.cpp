// Tests for src/core — the thermal data flow analysis itself: convergence
// behavior (Fig. 2), δ monotonicity, determinism, frequency/profile modes,
// pre-RA predictive models, accuracy against the trace-driven ground
// truth, and critical-variable ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "core/access_model.hpp"
#include "ir/builder.hpp"
#include "core/critical.hpp"
#include "core/thermal_dfa.hpp"
#include "dataflow/liveness.hpp"
#include "machine/machine_config.hpp"
#include "pipeline/analysis_manager.hpp"
#include "regalloc/linear_scan.hpp"
#include "regalloc/policy.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"
#include "support/statistics.hpp"
#include "workload/kernels.hpp"
#include "workload/random_program.hpp"

namespace tadfa::core {
namespace {

struct Rig {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  machine::TimingModel timing;
};

regalloc::AllocationResult allocate(const Rig& s, const ir::Function& f,
                                    const std::string& policy = "first_free") {
  auto p = regalloc::make_policy(policy);
  regalloc::LinearScanAllocator alloc(s.fp, *p);
  return alloc.allocate(f);
}

// ------------------------------------------------------------ convergence ----

TEST(ThermalDfa, ConvergesOnKernels) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  for (const auto& name : {"vecsum", "crc32", "fir", "counter"}) {
    auto k = workload::make_kernel(name);
    ASSERT_TRUE(k.has_value());
    const auto alloc = allocate(s, k->func);
    const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    EXPECT_TRUE(result.converged) << name;
    EXPECT_GE(result.iterations, 2) << name;  // at least one re-check pass
    EXPECT_LE(result.final_delta_k, dfa.config().delta_k) << name;
  }
}

TEST(ThermalDfa, IsDeterministic) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const auto a = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const auto b = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.exit_reg_temps_k, b.exit_reg_temps_k);
}

TEST(ThermalDfa, TighterDeltaNeedsMoreIterations) {
  Rig s;
  auto k = workload::make_fir();
  const auto alloc = allocate(s, k.func);

  int prev_iterations = 0;
  for (double delta : {1.0, 0.1, 0.001}) {
    ThermalDfaConfig cfg;
    cfg.delta_k = delta;
    cfg.max_iterations = 500;
    const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
    const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    EXPECT_GE(result.iterations, prev_iterations) << "delta=" << delta;
    prev_iterations = result.iterations;
  }
}

TEST(ThermalDfa, IterationCapFlagsNonConvergence) {
  Rig s;
  ThermalDfaConfig cfg;
  cfg.delta_k = 1e-12;  // unreachably tight
  cfg.max_iterations = 2;
  const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
  auto k = workload::make_fir();
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_GT(result.final_delta_k, cfg.delta_k);
}

TEST(ThermalDfa, DeltaHistoryDecaysForRegularPrograms) {
  Rig s;
  ThermalDfaConfig cfg;
  cfg.delta_k = 1e-4;
  cfg.max_iterations = 300;
  const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
  auto k = workload::make_vecsum();
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  ASSERT_GE(result.delta_history_k.size(), 3u);
  // Late deltas are much smaller than early ones.
  EXPECT_LT(result.delta_history_k.back(),
            result.delta_history_k.front() * 0.5 + 1e-12);
}

// ------------------------------------------------------------ output shape ----

TEST(ThermalDfa, PerInstructionStatesCoverFunction) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_counter(64);
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_EQ(result.per_instruction.size(), alloc.func.instruction_count());
  for (const InstructionThermal& it : result.per_instruction) {
    EXPECT_EQ(it.reg_temps_k.size(), s.fp.num_registers());
    EXPECT_GE(it.peak_k, s.grid.substrate_temp() - 1e-9);
  }
  EXPECT_GE(result.peak_anywhere_k, result.exit_stats.peak_k - 1e-9);
}

TEST(ThermalDfa, HotLoopRegistersArePredictedHot) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  // crc32 under first-free hammers a handful of low registers; the hottest
  // predicted cell must be one of them.
  const auto hottest = static_cast<machine::PhysReg>(
      stats::top_k_indices(result.exit_reg_temps_k, 1)[0]);
  EXPECT_LT(hottest, 12u);
  EXPECT_GT(result.exit_stats.peak_k, s.grid.substrate_temp() + 0.01);
}

TEST(ThermalDfa, AnalysisTimeRecorded) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_vecsum(32);
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_GT(result.analysis_seconds, 0.0);
}

// ---------------------------------------------------------- fast path ----

TEST(ThermalDfa, StrictMathMatchesReferenceGridBitForBit) {
  // --strict-math on a fast-tier grid must reproduce a reference-kernel
  // grid's analysis exactly: the flag pins the transient kernel to the
  // bit-identical reference tier no matter how the grid was built.
  Rig s;
  const thermal::ThermalGrid fast_grid(s.fp, 1, thermal::StepKernel::kSimd);
  const thermal::ThermalGrid ref_grid(s.fp, 1,
                                      thermal::StepKernel::kReference);
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);

  ThermalDfaConfig strict_cfg;
  strict_cfg.strict_math = true;
  const ThermalDfa strict_dfa(fast_grid, s.power, s.timing, strict_cfg);
  const ThermalDfa ref_dfa(ref_grid, s.power, s.timing);

  const auto a = strict_dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const auto b = ref_dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.final_delta_k, b.final_delta_k);
  EXPECT_EQ(a.exit_reg_temps_k, b.exit_reg_temps_k);
}

TEST(ThermalDfa, EvaluatePowerCandidatesMatchesSteadyState) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  std::vector<std::vector<double>> candidates(
      3, std::vector<double>(s.fp.num_registers(), 0.0));
  candidates[0][0] = 2e-3;
  candidates[1][5] = 1e-3;
  candidates[1][6] = 1e-3;
  candidates[2].assign(s.fp.num_registers(), 1e-4);

  const auto evals = dfa.evaluate_power_candidates(candidates);
  ASSERT_EQ(evals.size(), candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const auto direct =
        s.grid.register_temps(s.grid.steady_state(candidates[c]));
    ASSERT_EQ(evals[c].reg_temps_k.size(), direct.size());
    double peak = 0;
    for (std::size_t r = 0; r < direct.size(); ++r) {
      EXPECT_NEAR(evals[c].reg_temps_k[r], direct[r], 1e-6)
          << "candidate=" << c << " reg=" << r;
      peak = std::max(peak, evals[c].reg_temps_k[r]);
    }
    EXPECT_DOUBLE_EQ(evals[c].peak_k, peak) << "candidate=" << c;
    EXPECT_GT(evals[c].sweeps, 0) << "candidate=" << c;
  }
}

// -------------------------------------------------------- frequency modes ----

TEST(ThermalDfa, ProfileModeUsesMeasuredCounts) {
  Rig s;
  auto k = workload::make_counter(2048);
  const auto alloc = allocate(s, k.func);

  // Static estimate assumes ~10 trips; profile says 2048.
  const ThermalDfa static_dfa(s.grid, s.power, s.timing);
  const auto static_result =
      static_dfa.analyze_post_ra(alloc.func, alloc.assignment);

  sim::Interpreter interp(alloc.func, s.timing);
  const auto run = interp.run(k.default_args);
  ASSERT_TRUE(run.ok());
  std::vector<double> profile(run.block_visits.begin(),
                              run.block_visits.end());
  ThermalDfa profiled_dfa(s.grid, s.power, s.timing);
  profiled_dfa.set_block_profile(profile);
  const auto profiled_result =
      profiled_dfa.analyze_post_ra(alloc.func, alloc.assignment);

  // The profiled run knows the loop dominates: its predicted peak must be
  // at least the static one (longer time at loop power).
  EXPECT_GE(profiled_result.exit_stats.peak_k + 1e-9,
            static_result.exit_stats.peak_k);
}

// ----------------------------------------------------------- access models ----

TEST(AccessModels, ExactModelIsDelta) {
  Rig s;
  auto k = workload::make_vecsum(16);
  const auto alloc = allocate(s, k.func);
  const ExactAssignmentModel model(alloc.func, s.fp, alloc.assignment);
  for (ir::Reg v = 0; v < alloc.func.reg_count(); ++v) {
    if (!alloc.assignment.assigned(v)) {
      continue;
    }
    const auto& dist = model.distribution(v);
    double sum = 0;
    for (double p : dist) {
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(dist[alloc.assignment.phys(v)], 1.0);
  }
}

TEST(AccessModels, FirstFitConcentratesOnWindow) {
  Rig s;
  auto k = workload::make_vecsum(16);
  const FirstFitPredictionModel model(k.func, s.fp, 6);
  const auto& dist = model.distribution(0);
  double low = 0;
  double high = 0;
  for (std::size_t r = 0; r < dist.size(); ++r) {
    (r < 6 ? low : high) += dist[r];
  }
  EXPECT_NEAR(low, 1.0, 1e-12);
  EXPECT_NEAR(high, 0.0, 1e-12);
}

TEST(AccessModels, UniformSpreadsEverywhere) {
  Rig s;
  auto k = workload::make_vecsum(16);
  const UniformPredictionModel model(k.func, s.fp);
  const auto& dist = model.distribution(0);
  for (double p : dist) {
    EXPECT_NEAR(p, 1.0 / 64.0, 1e-12);
  }
}

TEST(AccessModels, PreRaPredictsFirstFitShape) {
  // The paper's ambition: predict BEFORE assignment. The first-fit
  // prediction model should correlate with the post-RA truth for a
  // first-free allocation far better than the uniform model does.
  Rig s;
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func, "first_free");

  const dataflow::Cfg cfg(alloc.func);
  const dataflow::Liveness lv(cfg);
  const FirstFitPredictionModel ff(alloc.func, s.fp, lv.max_pressure());
  const UniformPredictionModel uni(alloc.func, s.fp);

  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto exact = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const auto pred_ff = dfa.analyze(alloc.func, ff);
  const auto pred_uni = dfa.analyze(alloc.func, uni);

  const double err_ff =
      stats::rmse(exact.exit_reg_temps_k, pred_ff.exit_reg_temps_k);
  const double err_uni =
      stats::rmse(exact.exit_reg_temps_k, pred_uni.exit_reg_temps_k);
  EXPECT_LT(err_ff, err_uni);
}

// ----------------------------------------------------- accuracy vs replay ----

TEST(Accuracy, DfaTracksTraceDrivenGroundTruth) {
  // Central claim: the compile-time analysis approximates what the
  // trace-driven (feedback) pipeline measures. Check rank agreement on a
  // loop kernel with profiled frequencies.
  Rig s;
  auto k = workload::make_crc32(64);
  const auto alloc = allocate(s, k.func);

  sim::Interpreter interp(alloc.func, s.timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  power::AccessTrace trace(s.fp.num_registers());
  const auto run = interp.run_traced(k.default_args, alloc.assignment, trace);
  ASSERT_TRUE(run.ok());

  const sim::ThermalReplay replay(s.grid, s.power);
  sim::ReplayConfig rcfg;
  rcfg.max_repeats = 50;
  const auto truth = replay.replay(trace, rcfg);

  ThermalDfa dfa(s.grid, s.power, s.timing);
  std::vector<double> profile(run.block_visits.begin(),
                              run.block_visits.end());
  dfa.set_block_profile(profile);
  const auto predicted = dfa.analyze_post_ra(alloc.func, alloc.assignment);

  // Rank correlation between predicted and measured register temps.
  const double corr = stats::pearson(predicted.exit_reg_temps_k,
                                     truth.final_reg_temps);
  EXPECT_GT(corr, 0.8);

  // Hotspot overlap: the top-4 predicted hot registers substantially
  // overlap the measured top-4.
  const auto pred_hot = stats::top_k_indices(predicted.exit_reg_temps_k, 4);
  const auto true_hot = stats::top_k_indices(truth.final_reg_temps, 4);
  EXPECT_GE(stats::jaccard(pred_hot, true_hot), 0.3);
}

// ------------------------------------------------------- critical variables ----

TEST(Critical, LoopVariablesRankHighest) {
  Rig s;
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const ExactAssignmentModel model(alloc.func, s.fp, alloc.assignment);
  const auto ranking = rank_critical_variables(alloc.func, model, result,
                                               s.grid, s.timing);
  ASSERT_FALSE(ranking.empty());
  // Scores are sorted descending.
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].score, ranking[i].score);
  }
  // The top variable is accessed inside the loop (weighted accesses beyond
  // its static count).
  EXPECT_GT(ranking.front().weighted_accesses, 8.0);
  EXPECT_GT(ranking.front().energy_rate_w, 0.0);
}

TEST(Critical, UnusedRegistersExcluded) {
  Rig s;
  ir::Function f("u");
  f.ensure_regs(10);  // registers 1..9 never appear
  const auto blk = f.add_block();
  f.block(blk).append(ir::Instruction(ir::Opcode::kConst, 0,
                                      {ir::Operand::imm(1)}));
  f.block(blk).append(ir::Instruction(ir::Opcode::kRet, ir::kInvalidReg,
                                      {ir::Operand::reg(0)}));
  const auto alloc = allocate(s, f);
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const ExactAssignmentModel model(alloc.func, s.fp, alloc.assignment);
  const auto ranking = rank_critical_variables(alloc.func, model, result,
                                               s.grid, s.timing);
  EXPECT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0].vreg, 0u);
}

TEST(Critical, HotProgramPointsAboveSigma) {
  Rig s;
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  // Most in-loop peaks cluster tightly at the top, so discriminate at the
  // mean: loop instructions sit above it, prologue/epilogue below.
  const auto hot = hot_program_points(result, 0.0);
  EXPECT_FALSE(hot.empty());
  EXPECT_LT(hot.size(), result.per_instruction.size());
  for (const auto& hp : hot) {
    EXPECT_NE(hp.ref.block, 0u);  // never the entry block
  }
}

// ---------------------------------------------------- granularity (Sec. 3) ----

TEST(Granularity, FinerGridsCostMore) {
  Rig s;
  auto k = workload::make_fir(64, 8);
  const auto alloc = allocate(s, k.func);

  const thermal::ThermalGrid coarse(s.fp, 1);
  const thermal::ThermalGrid fine(s.fp, 3);
  const ThermalDfa dfa_coarse(coarse, s.power, s.timing);
  const ThermalDfa dfa_fine(fine, s.power, s.timing);
  const auto rc = dfa_coarse.analyze_post_ra(alloc.func, alloc.assignment);
  const auto rf = dfa_fine.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_TRUE(rc.converged);
  EXPECT_TRUE(rf.converged);
  // Cell-level predictions agree within tens of mK; node count is 9x.
  EXPECT_NEAR(rc.exit_stats.peak_k, rf.exit_stats.peak_k, 0.2);
}

}  // namespace
}  // namespace tadfa::core

// Appended: join-mode ablation coverage.
namespace tadfa::core {
namespace {

TEST(JoinModes, AllConvergeOnLoopKernel) {
  Rig s;
  auto k = workload::make_crc32(16);
  const auto alloc = allocate(s, k.func);
  for (JoinMode mode : {JoinMode::kWeightedMean, JoinMode::kUnweightedMean,
                        JoinMode::kMax}) {
    ThermalDfaConfig cfg;
    cfg.delta_k = 0.01;
    cfg.max_iterations = 500;
    cfg.join_mode = mode;
    const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
    const auto r = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    EXPECT_TRUE(r.converged) << static_cast<int>(mode);
  }
}

TEST(JoinModes, MaxDominatesMeans) {
  // The max join is an upper envelope: its exit map must dominate the
  // weighted mean's everywhere.
  Rig s;
  auto k = workload::make_crc32(16);
  const auto alloc = allocate(s, k.func);
  ThermalDfaConfig cfg;
  cfg.delta_k = 0.001;
  cfg.max_iterations = 500;
  const ThermalDfa mean_dfa(s.grid, s.power, s.timing, cfg);
  cfg.join_mode = JoinMode::kMax;
  const ThermalDfa max_dfa(s.grid, s.power, s.timing, cfg);
  const auto r_mean = mean_dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const auto r_max = max_dfa.analyze_post_ra(alloc.func, alloc.assignment);
  for (std::size_t r = 0; r < r_mean.exit_reg_temps_k.size(); ++r) {
    EXPECT_GE(r_max.exit_reg_temps_k[r] + 1e-6, r_mean.exit_reg_temps_k[r]);
  }
  EXPECT_GE(r_max.exit_stats.peak_k, r_mean.exit_stats.peak_k - 1e-6);
}

TEST(JoinModes, StraightLineCodeIsJoinInsensitive) {
  // Without merges, every join operator must produce the same answer.
  Rig s;
  ir::Function f("straight");
  ir::IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  const ir::Reg x = b.const_int(7);
  const ir::Reg y = b.mul(ir::IRBuilder::r(x), ir::IRBuilder::r(x));
  b.ret(ir::IRBuilder::r(y));
  const auto alloc = allocate(s, f);

  std::vector<std::vector<double>> maps;
  for (JoinMode mode : {JoinMode::kWeightedMean, JoinMode::kUnweightedMean,
                        JoinMode::kMax}) {
    ThermalDfaConfig cfg;
    cfg.join_mode = mode;
    const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
    maps.push_back(
        dfa.analyze_post_ra(alloc.func, alloc.assignment).exit_reg_temps_k);
  }
  for (std::size_t i = 1; i < maps.size(); ++i) {
    for (std::size_t r = 0; r < maps[0].size(); ++r) {
      EXPECT_NEAR(maps[i][r], maps[0][r], 1e-9);
    }
  }
}

}  // namespace
}  // namespace tadfa::core

// Oracle: the Fig. 2 loop as first written, dense per-visit power and
// all, on nothing but the public ThermalGrid::step_with / register_temps
// and PowerModel::leakage_power. ThermalDfa::analyze must reproduce it
// bit for bit however it is organised internally.
namespace tadfa::core {
namespace {

std::vector<double> oracle_instruction_power(
    const ir::Instruction& inst, const AccessDistributionModel& model,
    const machine::TimingModel& timing,
    const machine::TechnologyParams& tech, std::uint32_t n_phys) {
  std::vector<double> p(n_phys, 0.0);
  const double window_s =
      static_cast<double>(timing.cycles(inst)) * tech.cycle_seconds();

  auto add = [&](ir::Reg v, double energy) {
    const std::vector<double>& dist = model.distribution(v);
    const double watts = energy / window_s;
    for (std::uint32_t r = 0; r < n_phys; ++r) {
      if (dist[r] != 0.0) {
        p[r] += watts * dist[r];
      }
    }
  };

  for (ir::Reg u : inst.uses()) {
    add(u, tech.read_energy_j);
  }
  if (auto d = inst.def()) {
    add(*d, tech.write_energy_j);
  }
  return p;
}

ThermalDfaResult oracle_analyze(const thermal::ThermalGrid& grid,
                                const power::PowerModel& power,
                                const machine::TimingModel& timing,
                                const ThermalDfaConfig& config,
                                const std::vector<double>* profile,
                                const ir::Function& func,
                                const AccessDistributionModel& model) {
  pipeline::AnalysisManager am;
  const machine::Floorplan& fp = grid.floorplan();
  const machine::TechnologyParams& tech = fp.config().tech;
  const std::uint32_t n_phys = fp.num_registers();

  const dataflow::Cfg& cfg = am.get<dataflow::Cfg>(func);

  std::vector<double> freq;
  if (profile != nullptr) {
    freq = *profile;
    const double entry_count = std::max(freq[func.entry()], 1.0);
    for (double& f : freq) {
      f = std::max(f / entry_count, 0.0);
    }
  } else {
    freq = pipeline::block_frequencies(am, func, config.trip_count_guess);
  }

  ThermalDfaResult result;

  std::vector<thermal::ThermalState> out_state(func.block_count(),
                                               grid.initial_state());
  const std::vector<ir::InstrRef> all_refs = func.all_instructions();
  std::vector<std::vector<double>> prev_instr_temps(
      all_refs.size(), std::vector<double>(n_phys, grid.substrate_temp()));
  std::vector<std::vector<double>> cur_instr_temps = prev_instr_temps;

  std::vector<std::size_t> block_first(func.block_count(), 0);
  {
    std::size_t idx = 0;
    for (const ir::BasicBlock& b : func.blocks()) {
      block_first[b.id()] = idx;
      idx += b.size();
    }
  }

  const double cycle_s = tech.cycle_seconds();
  const thermal::StepKernel step_kernel = config.strict_math
                                              ? thermal::StepKernel::kReference
                                              : grid.step_kernel();

  bool stop = false;
  while (!stop && result.iterations < config.max_iterations) {
    stop = true;
    ++result.iterations;
    double iteration_delta = 0.0;

    for (ir::BlockId b : cfg.reverse_post_order()) {
      if (!cfg.reachable(b)) {
        continue;
      }
      thermal::ThermalState state = grid.initial_state();
      const auto& preds = cfg.predecessors(b);
      const bool include_boundary = b == func.entry();
      if (!preds.empty() || include_boundary) {
        const std::size_t nodes = state.node_temps.size();
        switch (config.join_mode) {
          case JoinMode::kWeightedMean:
          case JoinMode::kUnweightedMean: {
            double weight_sum = include_boundary ? 1.0 : 0.0;
            std::vector<double> weights(preds.size(), 1.0);
            for (std::size_t pi = 0; pi < preds.size(); ++pi) {
              if (config.join_mode == JoinMode::kWeightedMean) {
                weights[pi] = std::max(freq[preds[pi]], 1e-12);
              }
              weight_sum += weights[pi];
            }
            if (weight_sum > 0.0) {
              for (std::size_t n = 0; n < nodes; ++n) {
                double acc = include_boundary ? grid.substrate_temp() : 0.0;
                for (std::size_t pi = 0; pi < preds.size(); ++pi) {
                  acc += weights[pi] * out_state[preds[pi]].node_temps[n];
                }
                state.node_temps[n] = acc / weight_sum;
              }
            }
            break;
          }
          case JoinMode::kMax: {
            for (std::size_t n = 0; n < nodes; ++n) {
              double worst = state.node_temps[n];
              for (ir::BlockId p : preds) {
                worst = std::max(worst, out_state[p].node_temps[n]);
              }
              state.node_temps[n] = worst;
            }
            break;
          }
        }
      }

      const ir::BasicBlock& block = func.block(b);
      const double block_freq = std::max(freq[b], 1e-12);
      for (std::uint32_t i = 0; i < block.size(); ++i) {
        const ir::Instruction& inst = block.instructions()[i];
        std::vector<double> p =
            oracle_instruction_power(inst, model, timing, tech, n_phys);
        if (config.include_leakage) {
          const auto temps = grid.register_temps(state);
          const auto leak = power.leakage_power(fp, temps);
          for (std::uint32_t r = 0; r < n_phys; ++r) {
            p[r] += leak[r];
          }
        }
        const double dt = static_cast<double>(timing.cycles(inst)) *
                          cycle_s * block_freq;
        grid.step_with(step_kernel, state, p, dt);

        const std::size_t dense = block_first[b] + i;
        cur_instr_temps[dense] = grid.register_temps(state);
        double change = 0.0;
        for (std::uint32_t r = 0; r < n_phys; ++r) {
          change = std::max(change,
                            std::abs(cur_instr_temps[dense][r] -
                                     prev_instr_temps[dense][r]));
        }
        iteration_delta = std::max(iteration_delta, change);
        if (change > config.delta_k) {
          stop = false;
        }
      }
      out_state[b] = std::move(state);
    }

    result.delta_history_k.push_back(iteration_delta);
    result.final_delta_k = iteration_delta;
    std::swap(prev_instr_temps, cur_instr_temps);
  }
  result.converged = stop;

  result.per_instruction.reserve(all_refs.size());
  for (std::size_t i = 0; i < all_refs.size(); ++i) {
    InstructionThermal it;
    it.ref = all_refs[i];
    it.reg_temps_k = prev_instr_temps[i];
    it.peak_k = it.reg_temps_k.empty()
                    ? grid.substrate_temp()
                    : *std::max_element(it.reg_temps_k.begin(),
                                        it.reg_temps_k.end());
    result.peak_anywhere_k = std::max(result.peak_anywhere_k, it.peak_k);
    result.per_instruction.push_back(std::move(it));
  }

  std::vector<double> exit_temps(n_phys, grid.substrate_temp());
  double w_sum = 0.0;
  std::vector<double> acc(n_phys, 0.0);
  for (const ir::BasicBlock& b : func.blocks()) {
    if (!cfg.reachable(b.id()) || !b.has_terminator() ||
        b.terminator().opcode() != ir::Opcode::kRet) {
      continue;
    }
    const double w = std::max(freq[b.id()], 1e-12);
    const auto temps = grid.register_temps(out_state[b.id()]);
    for (std::uint32_t r = 0; r < n_phys; ++r) {
      acc[r] += w * temps[r];
    }
    w_sum += w;
  }
  if (w_sum > 0.0) {
    for (std::uint32_t r = 0; r < n_phys; ++r) {
      exit_temps[r] = acc[r] / w_sum;
    }
  }
  result.exit_reg_temps_k = std::move(exit_temps);
  result.exit_stats = thermal::compute_map_stats(fp, result.exit_reg_temps_k);
  return result;
}

// One machine of the oracle matrix, with its own allocation floorplan.
struct OracleMachine {
  machine::Floorplan fp;
  thermal::ThermalGrid grid;
  power::PowerModel power{fp.config()};
  machine::TimingModel timing;

  OracleMachine(machine::RegisterFileConfig config, unsigned subdivision)
      : fp(std::move(config)), grid(fp, subdivision) {}
};

enum class OracleModel { kExact, kFirstFit, kUniform };

// Runs both implementations and compares everything but wall-clock time;
// returns ThermalDfa's result.
ThermalDfaResult expect_matches_oracle(const OracleMachine& m,
                                       const ir::Function& func,
                                       OracleModel which,
                                       const ThermalDfaConfig& cfg,
                                       bool with_profile,
                                       const std::string& label) {
  auto policy = regalloc::make_policy("first_free");
  regalloc::LinearScanAllocator allocator(m.fp, *policy);
  const auto alloc = allocator.allocate(func);
  std::unique_ptr<AccessDistributionModel> model;
  switch (which) {
    case OracleModel::kExact:
      model = std::make_unique<ExactAssignmentModel>(alloc.func, m.fp,
                                                     alloc.assignment);
      break;
    case OracleModel::kFirstFit: {
      const dataflow::Cfg cfg_graph(alloc.func);
      const dataflow::Liveness lv(cfg_graph);
      model = std::make_unique<FirstFitPredictionModel>(alloc.func, m.fp,
                                                        lv.max_pressure());
      break;
    }
    case OracleModel::kUniform:
      model = std::make_unique<UniformPredictionModel>(alloc.func, m.fp);
      break;
  }

  // A synthetic profile with zero counts in it, so the 1e-12 frequency
  // floor is exercised too.
  std::vector<double> profile(alloc.func.block_count());
  for (std::size_t b = 0; b < profile.size(); ++b) {
    profile[b] = static_cast<double>((b * 37 + 3) % 17) * 3.0;
  }

  ThermalDfa dfa(m.grid, m.power, m.timing, cfg);
  if (with_profile) {
    dfa.set_block_profile(profile);
  }
  ThermalDfaResult got = dfa.analyze(alloc.func, *model);
  const ThermalDfaResult want =
      oracle_analyze(m.grid, m.power, m.timing, cfg,
                     with_profile ? &profile : nullptr, alloc.func, *model);
  got.analysis_seconds = 0;
  EXPECT_EQ(got, want) << label << " iterations " << got.iterations << " vs "
                       << want.iterations;
  return got;
}

TEST(DfaOracle, MatchesTheFig2LoopBitForBitAcrossTheMatrix) {
  std::vector<std::pair<std::string, ir::Function>> programs;
  for (auto& k : workload::standard_suite()) {
    programs.emplace_back(k.name, std::move(k.func));
  }
  for (std::uint64_t seed : {11u, 29u, 47u}) {
    workload::RandomProgramConfig rc;
    rc.seed = seed;
    rc.target_instructions = 60;
    rc.value_pool = 10;
    rc.irregularity = 0.5;
    programs.emplace_back("random_" + std::to_string(seed),
                          workload::random_program(rc));
  }

  std::vector<std::unique_ptr<OracleMachine>> machines;
  std::vector<std::string> machine_names;
  for (const auto& [name, config] :
       {std::pair{"default", machine::RegisterFileConfig::default_config()},
        std::pair{"large", machine::RegisterFileConfig::large_config()}}) {
    for (unsigned sub : {1u, 2u}) {
      machines.push_back(std::make_unique<OracleMachine>(config, sub));
      machine_names.push_back(std::string(name) + "/" + std::to_string(sub));
    }
  }
  // The corners where leakage is the largest share of power, at one node
  // per cell, where the DFA visits in the register domain.
  for (const char* name : {"dense45", "hotbox"}) {
    machines.push_back(std::make_unique<OracleMachine>(
        machine::find_machine(name)->rf, 1));
    machine_names.push_back(std::string(name) + "/1");
  }

  // Every (join, leakage, model, profile) combination runs at least once;
  // the rotation also pairs every program with several combinations.
  constexpr JoinMode kJoins[] = {JoinMode::kWeightedMean,
                                 JoinMode::kUnweightedMean, JoinMode::kMax};
  constexpr OracleModel kModels[] = {OracleModel::kExact,
                                     OracleModel::kFirstFit,
                                     OracleModel::kUniform};
  constexpr std::size_t kCombos = 3 * 2 * 3 * 2;
  ASSERT_GE(programs.size() * machines.size(), kCombos);
  std::size_t case_index = 0;
  for (const auto& [prog_name, func] : programs) {
    for (std::size_t mi = 0; mi < machines.size(); ++mi, ++case_index) {
      std::size_t c = case_index % kCombos;
      ThermalDfaConfig cfg;
      cfg.join_mode = kJoins[c % 3];
      c /= 3;
      cfg.include_leakage = c % 2 == 0;
      c /= 2;
      const OracleModel model = kModels[c % 3];
      c /= 3;
      const bool with_profile = c % 2 == 1;
      const std::string label =
          prog_name + " on " + machine_names[mi] + " join " +
          std::to_string(static_cast<int>(cfg.join_mode)) + " leakage " +
          std::to_string(cfg.include_leakage) + " model " +
          std::to_string(static_cast<int>(model)) + " profile " +
          std::to_string(with_profile);
      expect_matches_oracle(*machines[mi], func, model, cfg, with_profile,
                            label);
    }
  }
}

TEST(DfaOracle, MatchesWhenCappedBeforeConvergence) {
  const OracleMachine m(machine::RegisterFileConfig::default_config(), 1);
  auto k = workload::make_crc32(32);
  ThermalDfaConfig cfg;
  cfg.delta_k = 1e-9;
  cfg.max_iterations = 4;
  const ThermalDfaResult r = expect_matches_oracle(
      m, k.func, OracleModel::kExact, cfg, false, "crc32");
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 4);
  EXPECT_GT(r.final_delta_k, cfg.delta_k);
}

TEST(DfaOracle, StraightLineConvergesInTwoIterationsWithZeroDelta) {
  // One block, entered only from the boundary: iteration 2 starts from
  // the same state as iteration 1, so it reproduces it exactly.
  const OracleMachine m(machine::RegisterFileConfig::default_config(), 1);
  ir::Function f("straight");
  ir::IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  const ir::Reg x = b.const_int(7);
  const ir::Reg y = b.mul(ir::IRBuilder::r(x), ir::IRBuilder::r(x));
  const ir::Reg z = b.add(ir::IRBuilder::r(y), ir::IRBuilder::r(x));
  b.ret(ir::IRBuilder::r(z));
  // A δ below the first iteration's change, so a second one runs.
  ThermalDfaConfig cfg;
  cfg.delta_k = 1e-6;
  const ThermalDfaResult r = expect_matches_oracle(
      m, f, OracleModel::kExact, cfg, false, "straight");
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_EQ(r.final_delta_k, 0.0);
}

}  // namespace
}  // namespace tadfa::core
