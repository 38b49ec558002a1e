#include "core/thermal_dfa.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "pipeline/analysis_manager.hpp"
#include "support/assert.hpp"

namespace tadfa::core {
namespace {

/// Everything a Fig. 2 visit needs that does not change between
/// iterations, built once per analysis. Instructions are indexed densely
/// in function order (func.all_instructions()).
struct AnalysisTables {
  /// Instruction k's non-zero dynamic-power entries (per-register watts:
  /// access energies spread over its latency and distributed over cells
  /// by the access model) are power_reg / power_w [power_begin[k],
  /// power_begin[k + 1]).
  std::vector<std::size_t> power_begin;
  std::vector<std::uint32_t> power_reg;
  std::vector<double> power_w;
  /// Instruction k's substep plan over its frequency-scaled window.
  std::vector<thermal::StepPlan> plan;
  /// Dense index of each block's first instruction.
  std::vector<std::size_t> block_first;
  /// Block b's join weights, one per cfg.predecessors(b) entry, start at
  /// join_weight[weight_begin[b]]; weight_sum[b] includes the entry
  /// block's unit boundary weight.
  std::vector<std::size_t> weight_begin;
  std::vector<double> join_weight;
  std::vector<double> weight_sum;
};

AnalysisTables build_tables(const ir::Function& func, const dataflow::Cfg& cfg,
                            const std::vector<double>& freq,
                            const AccessDistributionModel& model,
                            const machine::TimingModel& timing,
                            const thermal::ThermalGrid& grid,
                            JoinMode join_mode) {
  const machine::TechnologyParams& tech = grid.floorplan().config().tech;
  const std::uint32_t n_phys = grid.floorplan().num_registers();
  const double cycle_s = tech.cycle_seconds();
  AnalysisTables tables;

  std::vector<double> dense(n_phys);
  tables.block_first.resize(func.block_count());
  for (const ir::BasicBlock& block : func.blocks()) {
    tables.block_first[block.id()] = tables.plan.size();
    const double block_freq = std::max(freq[block.id()], 1e-12);
    for (const ir::Instruction& inst : block.instructions()) {
      const double window_s =
          static_cast<double>(timing.cycles(inst)) * cycle_s;
      std::fill(dense.begin(), dense.end(), 0.0);
      auto add = [&](ir::Reg v, double energy) {
        const std::vector<double>& dist = model.distribution(v);
        TADFA_ASSERT(dist.size() == n_phys);
        const double watts = energy / window_s;
        for (std::uint32_t r = 0; r < n_phys; ++r) {
          if (dist[r] != 0.0) {
            dense[r] += watts * dist[r];
          }
        }
      };
      for (ir::Reg u : inst.uses()) {
        add(u, tech.read_energy_j);
      }
      if (auto d = inst.def()) {
        add(*d, tech.write_energy_j);
      }
      tables.power_begin.push_back(tables.power_reg.size());
      for (std::uint32_t r = 0; r < n_phys; ++r) {
        if (dense[r] != 0.0) {
          tables.power_reg.push_back(r);
          tables.power_w.push_back(dense[r]);
        }
      }
      // Frequency scaling: this instruction executes ~block_freq times per
      // program run; model those executions as one contiguous window (same
      // average power, frequency-scaled duration).
      tables.plan.push_back(grid.plan_step(window_s * block_freq));
    }
  }
  tables.power_begin.push_back(tables.power_reg.size());

  tables.weight_begin.resize(func.block_count());
  tables.weight_sum.resize(func.block_count());
  for (ir::BlockId b = 0; b < func.block_count(); ++b) {
    tables.weight_begin[b] = tables.join_weight.size();
    double sum = b == func.entry() ? 1.0 : 0.0;
    for (ir::BlockId p : cfg.predecessors(b)) {
      const double w = join_mode == JoinMode::kWeightedMean
                           ? std::max(freq[p], 1e-12)
                           : 1.0;
      tables.join_weight.push_back(w);
      sum += w;
    }
    tables.weight_sum[b] = sum;
  }
  return tables;
}

}  // namespace

ThermalDfa::ThermalDfa(const thermal::ThermalGrid& grid,
                       const power::PowerModel& power,
                       const machine::TimingModel& timing,
                       ThermalDfaConfig config)
    : grid_(&grid), power_(&power), timing_(timing), config_(config) {
  TADFA_ASSERT(config_.delta_k > 0);
  TADFA_ASSERT(config_.max_iterations >= 1);
}

void ThermalDfa::set_block_profile(std::vector<double> block_counts) {
  profile_ = std::move(block_counts);
}

ThermalDfaResult ThermalDfa::analyze(const ir::Function& func,
                                     const AccessDistributionModel& model,
                                     pipeline::AnalysisManager& am) const {
  const auto t0 = std::chrono::steady_clock::now();

  const machine::Floorplan& fp = grid_->floorplan();
  const std::uint32_t n_phys = fp.num_registers();
  const std::size_t nodes = grid_->node_count();
  const std::size_t state_bytes = nodes * sizeof(double);
  const double t_sub = grid_->substrate_temp();

  const dataflow::Cfg& cfg = am.get<dataflow::Cfg>(func);

  // Block execution frequencies: profiled when available, else static
  // (cached per trip-count guess, shared with the ranking stage).
  std::vector<double> freq;
  if (profile_) {
    TADFA_ASSERT(profile_->size() == func.block_count());
    freq = *profile_;
    const double entry_count = std::max(freq[func.entry()], 1.0);
    for (double& f : freq) {
      f = std::max(f / entry_count, 0.0);
    }
  } else {
    freq = pipeline::block_frequencies(am, func, config_.trip_count_guess);
  }

  const AnalysisTables tables = build_tables(func, cfg, freq, model, timing_,
                                             *grid_, config_.join_mode);

  // Flat state buffers, reused by every visit:
  //   exit_state[b]  node temperatures at block b's exit, latest iteration;
  //   entry_state[b] block b's joined entry state when it last ran;
  //   instr_temps[k] register temperatures after instruction k, latest
  //                  iteration — the δ test of Fig. 2 compares against and
  //                  then overwrites it in place.
  std::vector<double> exit_state(func.block_count() * nodes, t_sub);
  std::vector<double> entry_state(func.block_count() * nodes);
  std::vector<char> ran(func.block_count(), 0);
  std::vector<double> instr_temps(tables.plan.size() * n_phys, t_sub);
  std::vector<double> joined(nodes);
  std::vector<double> reg_temps(n_phys);
  std::vector<double> reg_power(n_phys);
  std::vector<double> node_power(nodes);
  std::vector<double> flux(nodes);

  // --strict-math pins the transient kernel to the bit-identical
  // reference tier no matter how the grid was constructed.
  const thermal::StepKernel step_kernel = config_.strict_math
                                              ? thermal::StepKernel::kReference
                                              : grid_->step_kernel();

  // Register domain: at one node per cell, node r is register r, so the
  // state is its own register-temperature buffer and the register powers
  // are the node powers; the spread and the averaging would be exact
  // copies and are skipped.
  const bool reg_domain = grid_->registers_are_nodes();
  double* const step_power = reg_domain ? reg_power.data()
                                        : node_power.data();

  ThermalDfaResult result;

  // --- Fig. 2 main loop ------------------------------------------------------
  // Do { stop = true; for each block, for each instruction in forward
  // order: estimate thermal state after I; if change exceeds δ, stop =
  // false } While (!stop)
  bool stop = false;
  while (!stop && result.iterations < config_.max_iterations) {
    stop = true;
    ++result.iterations;
    double iteration_delta = 0.0;

    for (ir::BlockId b : cfg.reverse_post_order()) {
      if (!cfg.reachable(b)) {
        continue;
      }
      // Join: merge predecessor exit states per the configured operator
      // (the paper leaves the merge open; the default weighted mean is the
      // expected temperature over incoming paths). The entry block also
      // folds in the boundary (machine at substrate temperature) with unit
      // weight, which covers the self-loop-into-entry corner case.
      double* in = joined.data();
      std::fill(in, in + nodes, t_sub);
      const auto& preds = cfg.predecessors(b);
      const bool include_boundary = b == func.entry();
      if (!preds.empty() || include_boundary) {
        switch (config_.join_mode) {
          case JoinMode::kWeightedMean:
          case JoinMode::kUnweightedMean: {
            const double weight_sum = tables.weight_sum[b];
            if (weight_sum > 0.0) {
              // Per node: boundary, then each predecessor in order — the
              // accumulation order of a node-by-node sum.
              std::fill(in, in + nodes, include_boundary ? t_sub : 0.0);
              const double* w =
                  tables.join_weight.data() + tables.weight_begin[b];
              for (std::size_t pi = 0; pi < preds.size(); ++pi) {
                const double* out = &exit_state[preds[pi] * nodes];
                for (std::size_t n = 0; n < nodes; ++n) {
                  in[n] += w[pi] * out[n];
                }
              }
              for (std::size_t n = 0; n < nodes; ++n) {
                in[n] /= weight_sum;
              }
            }
            break;
          }
          case JoinMode::kMax: {
            // Upper envelope; the substrate-temperature initial state is
            // the floor (it also stands in for the entry boundary).
            for (ir::BlockId p : preds) {
              const double* out = &exit_state[p * nodes];
              for (std::size_t n = 0; n < nodes; ++n) {
                in[n] = std::max(in[n], out[n]);
              }
            }
            break;
          }
        }
      }

      // Exact block skip: the transfer through a block is a pure function
      // of its entry state, so an entry bitwise equal to the last one
      // would reproduce every state after it bit for bit and report a
      // change of exactly 0 for each instruction.
      double* prev_in = &entry_state[b * nodes];
      if (ran[b] && std::memcmp(in, prev_in, state_bytes) == 0) {
        continue;
      }
      ran[b] = 1;
      std::memcpy(prev_in, in, state_bytes);

      // Transfer through the block, instruction by instruction, in place
      // on its exit state. temps always holds the register temperatures
      // of the current state: leakage input of the next instruction.
      double* t = &exit_state[b * nodes];
      std::memcpy(t, in, state_bytes);
      const double* temps = reg_domain ? t : reg_temps.data();
      if (config_.include_leakage && !reg_domain) {
        grid_->register_temps_into(t, reg_temps.data());
      }
      const std::size_t first = tables.block_first[b];
      const std::size_t last = first + func.block(b).size();
      for (std::size_t k = first; k < last; ++k) {
        if (config_.include_leakage) {
          power_->leakage_power(fp, {temps, n_phys}, reg_power);
        } else {
          std::fill(reg_power.begin(), reg_power.end(), 0.0);
        }
        for (std::size_t e = tables.power_begin[k];
             e < tables.power_begin[k + 1]; ++e) {
          reg_power[tables.power_reg[e]] += tables.power_w[e];
        }
        if (!reg_domain) {
          grid_->spread_power_into(reg_power, node_power.data());
        }
        grid_->advance(step_kernel, t, step_power, tables.plan[k],
                       flux.data());
        if (!reg_domain) {
          grid_->register_temps_into(t, reg_temps.data());
        }

        // δ test against the previous iteration's state after I.
        double* prev = &instr_temps[k * n_phys];
        double change = 0.0;
        for (std::uint32_t r = 0; r < n_phys; ++r) {
          change = std::max(change, std::abs(temps[r] - prev[r]));
          prev[r] = temps[r];
        }
        iteration_delta = std::max(iteration_delta, change);
        if (change > config_.delta_k) {
          stop = false;
        }
      }
    }

    result.delta_history_k.push_back(iteration_delta);
    result.final_delta_k = iteration_delta;
  }
  result.converged = stop;

  // --- Outputs ----------------------------------------------------------------
  const std::vector<ir::InstrRef> all_refs = func.all_instructions();
  result.per_instruction.reserve(all_refs.size());
  for (std::size_t k = 0; k < all_refs.size(); ++k) {
    InstructionThermal it;
    it.ref = all_refs[k];
    const double* temps = &instr_temps[k * n_phys];
    it.reg_temps_k.assign(temps, temps + n_phys);
    it.peak_k = it.reg_temps_k.empty()
                    ? t_sub
                    : *std::max_element(it.reg_temps_k.begin(),
                                        it.reg_temps_k.end());
    result.peak_anywhere_k = std::max(result.peak_anywhere_k, it.peak_k);
    result.per_instruction.push_back(std::move(it));
  }

  // Exit state: frequency-weighted merge over ret blocks.
  std::vector<double> exit_temps(n_phys, t_sub);
  double w_sum = 0.0;
  std::vector<double> acc(n_phys, 0.0);
  for (const ir::BasicBlock& b : func.blocks()) {
    if (!cfg.reachable(b.id()) || !b.has_terminator() ||
        b.terminator().opcode() != ir::Opcode::kRet) {
      continue;
    }
    const double w = std::max(freq[b.id()], 1e-12);
    grid_->register_temps_into(&exit_state[b.id() * nodes], reg_temps.data());
    for (std::uint32_t r = 0; r < n_phys; ++r) {
      acc[r] += w * reg_temps[r];
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

  result.analysis_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

ThermalDfaResult ThermalDfa::analyze(
    const ir::Function& func, const AccessDistributionModel& model) const {
  pipeline::AnalysisManager am;
  return analyze(func, model, am);
}

std::vector<CandidateThermal> ThermalDfa::evaluate_power_candidates(
    std::span<const std::vector<double>> candidate_powers,
    const thermal::ThermalState* warm_start, double tolerance_k) const {
  std::vector<thermal::SteadyStateInfo> infos;
  const std::vector<thermal::ThermalState> states = grid_->steady_state_batch(
      candidate_powers, tolerance_k, warm_start, &infos);
  std::vector<CandidateThermal> out;
  out.reserve(states.size());
  for (std::size_t lane = 0; lane < states.size(); ++lane) {
    CandidateThermal c;
    c.reg_temps_k = grid_->register_temps(states[lane]);
    c.peak_k = c.reg_temps_k.empty()
                   ? grid_->substrate_temp()
                   : *std::max_element(c.reg_temps_k.begin(),
                                       c.reg_temps_k.end());
    c.sweeps = infos[lane].sweeps;
    out.push_back(std::move(c));
  }
  return out;
}

ThermalDfaResult ThermalDfa::analyze_post_ra(
    const ir::Function& func, const machine::RegisterAssignment& assignment,
    pipeline::AnalysisManager& am) const {
  const ExactAssignmentModel model(func, grid_->floorplan(), assignment);
  return analyze(func, model, am);
}

ThermalDfaResult ThermalDfa::analyze_post_ra(
    const ir::Function& func,
    const machine::RegisterAssignment& assignment) const {
  const ExactAssignmentModel model(func, grid_->floorplan(), assignment);
  return analyze(func, model);
}

}  // namespace tadfa::core
