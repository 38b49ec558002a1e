#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/assert.hpp"
#include "support/serialize.hpp"
#include "thermal/step_kernel.hpp"

namespace tadfa::thermal {

const char* to_string(StepKernel kernel) {
  switch (kernel) {
    case StepKernel::kReference:
      return "reference";
    case StepKernel::kSimd:
      return "simd";
    case StepKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

StepKernel ThermalGrid::default_step_kernel() {
#if defined(TADFA_SIMD)
  return kernel_available(StepKernel::kAvx2) ? StepKernel::kAvx2
                                             : StepKernel::kSimd;
#else
  return StepKernel::kReference;
#endif
}

bool ThermalGrid::kernel_available(StepKernel kernel) {
  switch (kernel) {
    case StepKernel::kReference:
    case StepKernel::kSimd:
      return true;
    case StepKernel::kAvx2:
      return detail::avx2_available();
  }
  return false;
}

ThermalGrid::ThermalGrid(const machine::Floorplan& floorplan,
                         unsigned subdivision)
    : ThermalGrid(floorplan, subdivision, default_step_kernel()) {}

ThermalGrid::ThermalGrid(const machine::Floorplan& floorplan,
                         unsigned subdivision, StepKernel kernel)
    : floorplan_(&floorplan), subdivision_(subdivision) {
  TADFA_ASSERT(subdivision >= 1);
  // An unavailable tier degrades to the portable fast tier, never
  // silently to the reference tier (the caller asked for speed, and the
  // digest must reflect the tier actually run).
  kernel_ = kernel_available(kernel) ? kernel : StepKernel::kSimd;
  const auto& cfg = floorplan.config();
  const auto& tech = cfg.tech;
  substrate_temp_ = tech.substrate_temp_k;

  node_rows_ = static_cast<std::size_t>(cfg.rows) * subdivision;
  node_cols_ = static_cast<std::size_t>(cfg.cols) * subdivision;
  const std::size_t n = node_rows_ * node_cols_;
  TADFA_ASSERT(n <= static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()));

  const double node_w = tech.cell_width_m / subdivision;
  const double node_h = tech.cell_height_m / subdivision;
  const double thickness = tech.die_thickness_m;
  const double k = tech.silicon_conductivity;

  // Capacitance: node volume × volumetric heat capacity.
  const double c_node = node_w * node_h * thickness * tech.silicon_volumetric_heat;
  cap_.assign(n, c_node);

  // Vertical: spreading resistance of the whole cell into the bulk,
  // R_cell = scale / (2·k·sqrt(A_cell/π)), split evenly over the cell's
  // subdivision² nodes so total vertical conductance is subdivision-
  // invariant (the granularity knob changes resolution, not physics).
  const double cell_area = tech.cell_area_m2();
  const double r_cell = tech.vertical_resistance_scale /
                        (2.0 * k * std::sqrt(cell_area / 3.14159265358979));
  const double g_cell = 1.0 / r_cell;
  const double g_node = g_cell / (subdivision * subdivision);
  g_vertical_.assign(n, g_node);

  // Lateral conduction between adjacent nodes:
  // G = k · (edge_length · thickness) / center_distance.
  g_lateral_h_ = k * (node_h * thickness) / node_w;  // east-west
  g_lateral_v_ = k * (node_w * thickness) / node_h;  // north-south

  // Stability: dt < min_i C_i / (sum of conductances at i). Corner nodes
  // have fewest links, interior most; use the interior worst case.
  const double g_max = g_node + 2 * g_lateral_h_ + 2 * g_lateral_v_;
  stable_dt_ = 0.9 * c_node / g_max;

  // Flat neighbor tables for the transient hot loop: slot order W/E/N/S,
  // missing neighbors self-linked with zero conductance.
  nbr_index_.assign(4 * n, 0);
  nbr_g_.assign(4 * n, 0.0);
  for (std::size_t row = 0; row < node_rows_; ++row) {
    for (std::size_t col = 0; col < node_cols_; ++col) {
      const std::size_t i = node_index(row, col);
      std::size_t* idx = &nbr_index_[4 * i];
      double* g = &nbr_g_[4 * i];
      idx[0] = col > 0 ? i - 1 : i;
      g[0] = col > 0 ? g_lateral_h_ : 0.0;
      idx[1] = col + 1 < node_cols_ ? i + 1 : i;
      g[1] = col + 1 < node_cols_ ? g_lateral_h_ : 0.0;
      idx[2] = row > 0 ? i - node_cols_ : i;
      g[2] = row > 0 ? g_lateral_v_ : 0.0;
      idx[3] = row + 1 < node_rows_ ? i + node_cols_ : i;
      g[3] = row + 1 < node_rows_ ? g_lateral_v_ : 0.0;
    }
  }

  // Slot-major mirrors plus fused per-node constants for the fast tiers.
  nbr_g_soa_.assign(4 * n, 0.0);
  nbr_idx_soa_.assign(4 * n, 0);
  g_diag_.assign(n, 0.0);
  gv_tsub_.assign(n, 0.0);
  inv_cap_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double g_sum = g_vertical_[i];
    for (std::size_t s = 0; s < 4; ++s) {
      nbr_g_soa_[s * n + i] = nbr_g_[4 * i + s];
      nbr_idx_soa_[s * n + i] = static_cast<std::int32_t>(nbr_index_[4 * i + s]);
      g_sum += nbr_g_[4 * i + s];
    }
    g_diag_[i] = g_sum;
    gv_tsub_[i] = g_vertical_[i] * substrate_temp_;
    inv_cap_[i] = 1.0 / cap_[i];
  }

  // Register <-> node maps.
  reg_nodes_.clear();
  reg_nodes_.reserve(n);
  node_owner_.assign(n, 0);
  for (machine::PhysReg r = 0; r < cfg.num_registers; ++r) {
    const std::size_t base_row =
        static_cast<std::size_t>(floorplan.row_of(r)) * subdivision;
    const std::size_t base_col =
        static_cast<std::size_t>(floorplan.col_of(r)) * subdivision;
    for (unsigned dr = 0; dr < subdivision; ++dr) {
      for (unsigned dc = 0; dc < subdivision; ++dc) {
        const std::size_t idx = node_index(base_row + dr, base_col + dc);
        reg_nodes_.push_back(idx);
        node_owner_[idx] = r;
      }
    }
  }
  registers_are_nodes_ = subdivision == 1;
  for (std::size_t r = 0; r < reg_nodes_.size() && registers_are_nodes_; ++r) {
    registers_are_nodes_ = reg_nodes_[r] == r;
  }
}

std::span<const std::size_t> ThermalGrid::nodes_of(machine::PhysReg r) const {
  TADFA_ASSERT(r < floorplan_->num_registers());
  return {reg_nodes_.data() + r * nodes_per_cell(), nodes_per_cell()};
}

machine::PhysReg ThermalGrid::register_of(std::size_t node) const {
  TADFA_ASSERT(node < node_owner_.size());
  return node_owner_[node];
}

ThermalState ThermalGrid::initial_state() const {
  ThermalState s;
  s.node_temps.assign(node_count(), substrate_temp_);
  return s;
}

void ThermalGrid::spread_power_into(std::span<const double> reg_power_w,
                                    double* node_power) const {
  TADFA_ASSERT(reg_power_w.size() == floorplan_->num_registers());
  // The cells partition the grid, so every node is written exactly once.
  const std::size_t per_cell = nodes_per_cell();
  const double per_node = 1.0 / static_cast<double>(per_cell);
  const std::size_t* idx = reg_nodes_.data();
  for (std::size_t r = 0; r < reg_power_w.size(); ++r, idx += per_cell) {
    const double share = reg_power_w[r] * per_node;
    for (std::size_t k = 0; k < per_cell; ++k) {
      node_power[idx[k]] = share;
    }
  }
}

void ThermalGrid::spread_power(std::span<const double> reg_power_w,
                               std::vector<double>& p) const {
  p.resize(node_count());
  spread_power_into(reg_power_w, p.data());
}

template <bool kHasNorth, bool kHasSouth>
void ThermalGrid::reference_flux_row(std::size_t row, const double* t,
                                     const double* p, double* flux) const {
  // Per node: p + g_v·(T_sub − t), then the W, E, N, S links in that
  // order. Links across the grid's edge are skipped: as zero-conductance
  // links they would add exactly +0.0, which leaves the sum unchanged.
  const std::size_t cols = node_cols_;
  const std::size_t begin = row * cols;
  const std::size_t end = begin + cols;
  const double* gv = g_vertical_.data();
  const double ts = substrate_temp_;
  const double gh = g_lateral_h_;
  const double gn = g_lateral_v_;
  auto node = [&](std::size_t i, bool has_w, bool has_e) {
    const double ti = t[i];
    double q = p[i] + gv[i] * (ts - ti);
    if (has_w) {
      q += gh * (t[i - 1] - ti);
    }
    if (has_e) {
      q += gh * (t[i + 1] - ti);
    }
    if constexpr (kHasNorth) {
      q += gn * (t[i - cols] - ti);
    }
    if constexpr (kHasSouth) {
      q += gn * (t[i + cols] - ti);
    }
    flux[i] = q;
  };
  if (cols == 1) {
    node(begin, false, false);
    return;
  }
  node(begin, false, true);
  for (std::size_t i = begin + 1; i + 1 < end; ++i) {
    node(i, true, true);
  }
  node(end - 1, true, false);
}

void ThermalGrid::substep_with(StepKernel kernel, double* t, const double* p,
                               double* flux, double h) const {
  const std::size_t n = node_count();
  switch (kernel) {
    case StepKernel::kReference: {
      // Fluxes row by row (interior rows have both vertical links), then
      // t += h·q / C — no reciprocal, no FMA.
      const std::size_t rows = node_rows_;
      if (rows == 1) {
        reference_flux_row<false, false>(0, t, p, flux);
      } else {
        reference_flux_row<false, true>(0, t, p, flux);
        for (std::size_t row = 1; row + 1 < rows; ++row) {
          reference_flux_row<true, true>(row, t, p, flux);
        }
        reference_flux_row<true, false>(rows - 1, t, p, flux);
      }
      const double* cap = cap_.data();
      for (std::size_t i = 0; i < n; ++i) {
        t[i] += h * flux[i] / cap[i];
      }
      return;
    }
    case StepKernel::kSimd: {
      // Same per-element operation order as the reference — the slot loop
      // is merely unrolled across planes — so results match bit-for-bit
      // wherever the compiler does not contract into FMA (x86-64 baseline
      // codegen has no FMA; the exactness test still allows a tiny
      // tolerance for other targets).
      const double* gv = g_vertical_.data();
      const double* cap = cap_.data();
      const double ts = substrate_temp_;
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        flux[i] = p[i] + gv[i] * (ts - t[i]);
      }
      for (std::size_t s = 0; s < 4; ++s) {
        const double* g = nbr_g_soa_.data() + s * n;
        const std::int32_t* idx = nbr_idx_soa_.data() + s * n;
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) {
          flux[i] += g[i] * (t[idx[i]] - t[i]);
        }
      }
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        t[i] += h * flux[i] / cap[i];
      }
      return;
    }
    case StepKernel::kAvx2: {
      detail::FastTables tables;
      tables.gv_tsub = gv_tsub_.data();
      tables.g_diag = g_diag_.data();
      for (std::size_t s = 0; s < 4; ++s) {
        tables.g_slot[s] = nbr_g_soa_.data() + s * n;
        tables.idx_slot[s] = nbr_idx_soa_.data() + s * n;
      }
      tables.inv_cap = inv_cap_.data();
      tables.n = n;
      tables.cols = node_cols_;
      detail::substep_avx2(tables, p, flux, t, h);
      return;
    }
  }
  TADFA_ASSERT(false && "unknown StepKernel");
}

void ThermalGrid::step(ThermalState& state,
                       std::span<const double> reg_power_w, double dt) const {
  step_with(kernel_, state, reg_power_w, dt);
}

void ThermalGrid::step_with(StepKernel kernel, ThermalState& state,
                            std::span<const double> reg_power_w,
                            double dt) const {
  TADFA_ASSERT(state.node_temps.size() == node_count());
  TADFA_ASSERT(reg_power_w.size() == floorplan_->num_registers());
  const StepPlan plan = plan_step(dt);
  if (plan.substeps == 0) {
    return;
  }
  // Thread-local scratch: repeated callers (thermal replay, tests) should
  // neither pay per-call mallocs nor serialize a worker pool on the
  // allocator.
  thread_local std::vector<double> scratch_power;
  thread_local std::vector<double> scratch_flux;
  spread_power(reg_power_w, scratch_power);
  scratch_flux.resize(node_count());
  advance(kernel, state.node_temps.data(), scratch_power.data(), plan,
          scratch_flux.data());
}

StepPlan ThermalGrid::plan_step(double dt) const {
  TADFA_ASSERT(dt >= 0.0);
  if (dt == 0.0) {
    return {};
  }
  StepPlan plan;
  plan.substeps = std::max(1, static_cast<int>(std::ceil(dt / stable_dt_)));
  plan.h = dt / plan.substeps;
  return plan;
}

void ThermalGrid::advance(StepKernel kernel, double* t,
                          const double* node_power, const StepPlan& plan,
                          double* flux) const {
  TADFA_ASSERT(kernel_available(kernel));
  for (int s = 0; s < plan.substeps; ++s) {
    substep_with(kernel, t, node_power, flux, plan.h);
  }
}

void ThermalGrid::step_batch(std::span<ThermalState> states,
                             std::span<const std::vector<double>> reg_powers,
                             double dt) const {
  TADFA_ASSERT(states.size() == reg_powers.size());
  TADFA_ASSERT(dt >= 0.0);
  if (states.empty() || dt == 0.0) {
    return;
  }
  const std::size_t n = node_count();
  const std::size_t lanes = states.size();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    TADFA_ASSERT(states[lane].node_temps.size() == n);
    TADFA_ASSERT(reg_powers[lane].size() == floorplan_->num_registers());
  }

  thread_local std::vector<double> scratch_powers;
  thread_local std::vector<double> scratch_flux;
  scratch_powers.resize(n * lanes);
  scratch_flux.resize(n);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    spread_power_into(reg_powers[lane], scratch_powers.data() + lane * n);
  }

  const StepPlan plan = plan_step(dt);

  // Substeps outer, lanes inner: every lane reuses the conductance tables
  // while they are hot. Each lane still sees the exact substep sequence a
  // sequential step() call would run, so the results are bit-identical.
  for (int s = 0; s < plan.substeps; ++s) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      substep_with(kernel_, states[lane].node_temps.data(),
                   scratch_powers.data() + lane * n, scratch_flux.data(),
                   plan.h);
    }
  }
}

ThermalState ThermalGrid::steady_state(std::span<const double> reg_power_w,
                                       double tolerance_k) const {
  SteadyStateOptions options;
  options.tolerance_k = tolerance_k;
  return steady_state(reg_power_w, options, nullptr);
}

ThermalState ThermalGrid::steady_state(std::span<const double> reg_power_w,
                                       const SteadyStateOptions& options,
                                       SteadyStateInfo* info) const {
  TADFA_ASSERT(reg_power_w.size() == floorplan_->num_registers());
  TADFA_ASSERT(options.warm_start == nullptr ||
               options.warm_start->node_temps.size() == node_count());

  std::vector<double> p;
  spread_power(reg_power_w, p);

  if (kernel_ == StepKernel::kReference) {
    return steady_state_full_sweeps(p, options, info);
  }
  return steady_state_active_set(p, options, info);
}

ThermalState ThermalGrid::steady_state_full_sweeps(
    const std::vector<double>& p, const SteadyStateOptions& options,
    SteadyStateInfo* info) const {
  ThermalState state =
      options.warm_start != nullptr ? *options.warm_start : initial_state();
  std::vector<double>& t = state.node_temps;
  const double tolerance_k = options.tolerance_k;

  // Gauss-Seidel on  (G_v + ΣG_l)·T_i = P_i + G_v·T_sub + Σ G_l·T_j.
  // The system matrix is strictly diagonally dominant (G_v > 0), so this
  // converges for any starting point.
  double worst = tolerance_k + 1;
  int iterations = 0;
  std::uint64_t relaxations = 0;
  const int max_iterations = options.max_sweeps;
  while (worst > tolerance_k && iterations < max_iterations) {
    worst = 0.0;
    ++iterations;
    for (std::size_t row = 0; row < node_rows_; ++row) {
      for (std::size_t col = 0; col < node_cols_; ++col) {
        const std::size_t i = node_index(row, col);
        double g_sum = g_vertical_[i];
        double rhs = p[i] + g_vertical_[i] * substrate_temp_;
        if (col > 0) {
          g_sum += g_lateral_h_;
          rhs += g_lateral_h_ * t[i - 1];
        }
        if (col + 1 < node_cols_) {
          g_sum += g_lateral_h_;
          rhs += g_lateral_h_ * t[i + 1];
        }
        if (row > 0) {
          g_sum += g_lateral_v_;
          rhs += g_lateral_v_ * t[i - node_cols_];
        }
        if (row + 1 < node_rows_) {
          g_sum += g_lateral_v_;
          rhs += g_lateral_v_ * t[i + node_cols_];
        }
        const double updated = rhs / g_sum;
        worst = std::max(worst, std::abs(updated - t[i]));
        t[i] = updated;
        ++relaxations;
      }
    }
  }
  if (info != nullptr) {
    info->sweeps = iterations;
    info->relaxations = relaxations;
    info->converged = worst <= tolerance_k;
  }
  return state;
}

ThermalState ThermalGrid::steady_state_active_set(
    const std::vector<double>& p, const SteadyStateOptions& options,
    SteadyStateInfo* info) const {
  const std::size_t n = node_count();
  ThermalState state =
      options.warm_start != nullptr ? *options.warm_start : initial_state();
  std::vector<double>& t = state.node_temps;
  const double tolerance_k = options.tolerance_k;
  // Reactivation threshold δ: a node that moved more than this keeps
  // itself and its neighbors in the next sweep. Strictly tighter than the
  // convergence tolerance so the final validation sweep can pass, but not
  // much tighter — per-sweep movement decays geometrically, so every
  // halving of δ below the tolerance buys extra sweeps for nothing.
  const double theta = 0.5 * tolerance_k;

  // Update form matches the full-sweep solver's equation with the
  // branches folded into the precomputed tables (absent links have g = 0
  // and a self index, contributing exactly 0 to rhs): this tier trades
  // bit-identity with the reference assembly order for table reuse.
  auto relax_node = [&](std::size_t i) {
    const std::size_t* idx = &nbr_index_[4 * i];
    const double* g = &nbr_g_[4 * i];
    double rhs = p[i] + gv_tsub_[i];
    rhs += g[0] * t[idx[0]];
    rhs += g[1] * t[idx[1]];
    rhs += g[2] * t[idx[2]];
    rhs += g[3] * t[idx[3]];
    const double updated = rhs / g_diag_[i];
    const double delta = std::abs(updated - t[i]);
    t[i] = updated;
    return delta;
  };

  std::vector<char> active(n, 0);
  std::vector<char> next(n, 0);
  auto mark = [&](std::size_t i) {
    const std::size_t* idx = &nbr_index_[4 * i];
    next[i] = 1;
    next[idx[0]] = 1;
    next[idx[1]] = 1;
    next[idx[2]] = 1;
    next[idx[3]] = 1;
  };

  // Hybrid sweep schedule. While most nodes are still moving (the bulk
  // of a cold solve — per-sweep movement decays through a global mode,
  // so the whole grid crosses δ together near the end), the worklist
  // bookkeeping (five flag stores per mover, a flag test per node)
  // costs more than it saves: run plain full sweeps over the fused
  // tables and just count movers. Once fewer than a quarter of the
  // nodes moved more than δ, one marking sweep seeds the worklist and
  // partial sweeps re-relax only the active set. A drained worklist
  // falls back to a full sweep, which doubles as the validation pass:
  // converged iff a full sweep moved no node by more than tolerance_k —
  // the same global criterion the reference solver terminates on.
  int sweeps = 0;
  std::uint64_t relaxations = 0;
  bool converged = false;
  bool worklist = false;
  bool mark_now = false;
  while (sweeps < options.max_sweeps) {
    ++sweeps;
    if (worklist) {
      // Partial sweep: relax only the active set; any node still moving
      // by more than δ re-activates itself and its neighbors.
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!active[i]) {
          continue;
        }
        ++relaxations;
        if (relax_node(i) > theta) {
          mark(i);
          any = true;
        }
      }
      active.swap(next);
      std::fill(next.begin(), next.end(), 0);
      if (!any) {
        worklist = false;
        mark_now = false;  // next full sweep validates before re-seeding
      }
    } else {
      double worst = 0.0;
      std::size_t movers = 0;
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) {
        ++relaxations;
        const double delta = relax_node(i);
        worst = std::max(worst, delta);
        if (delta > theta) {
          ++movers;
          if (mark_now) {
            mark(i);
            any = true;
          }
        }
      }
      if (worst <= tolerance_k) {
        converged = true;
        break;
      }
      if (mark_now) {
        active.swap(next);
        std::fill(next.begin(), next.end(), 0);
        worklist = any;
      } else {
        mark_now = movers * 4 <= n;
      }
    }
  }
  if (info != nullptr) {
    info->sweeps = sweeps;
    info->relaxations = relaxations;
    info->converged = converged;
  }
  return state;
}

std::vector<ThermalState> ThermalGrid::steady_state_batch(
    std::span<const std::vector<double>> reg_powers, double tolerance_k,
    const ThermalState* warm_start,
    std::vector<SteadyStateInfo>* infos) const {
  const std::size_t lanes = reg_powers.size();
  const std::size_t n = node_count();
  TADFA_ASSERT(warm_start == nullptr ||
               warm_start->node_temps.size() == n);
  if (infos != nullptr) {
    infos->assign(lanes, {});
  }
  std::vector<ThermalState> states;
  states.reserve(lanes);
  if (lanes == 0) {
    return states;
  }

  std::vector<double> powers(n * lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    spread_power_into(reg_powers[lane], powers.data() + lane * n);
    states.push_back(warm_start != nullptr ? *warm_start : initial_state());
  }

  // Gauss-Seidel with the node loop outer and lanes inner, so every lane
  // reuses the link structure resolved for the current node. Per-lane
  // operation order matches the reference full-sweep solver exactly
  // (lane-invariant g_sum, rhs accumulated in the same W/E/N/S branch
  // order), so each lane's result is bit-identical to a sequential
  // reference-tier steady_state() call from the same start.
  std::vector<char> done(lanes, 0);
  std::vector<double> worst(lanes, 0.0);
  std::vector<int> lane_sweeps(lanes, 0);
  std::size_t remaining = lanes;
  int iterations = 0;
  const int max_iterations = 100000;
  while (remaining > 0 && iterations < max_iterations) {
    ++iterations;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!done[lane]) {
        worst[lane] = 0.0;
      }
    }
    for (std::size_t row = 0; row < node_rows_; ++row) {
      for (std::size_t col = 0; col < node_cols_; ++col) {
        const std::size_t i = node_index(row, col);
        double g_sum = g_vertical_[i];
        std::size_t link_idx[4];
        double link_g[4];
        std::size_t links = 0;
        if (col > 0) {
          g_sum += g_lateral_h_;
          link_idx[links] = i - 1;
          link_g[links++] = g_lateral_h_;
        }
        if (col + 1 < node_cols_) {
          g_sum += g_lateral_h_;
          link_idx[links] = i + 1;
          link_g[links++] = g_lateral_h_;
        }
        if (row > 0) {
          g_sum += g_lateral_v_;
          link_idx[links] = i - node_cols_;
          link_g[links++] = g_lateral_v_;
        }
        if (row + 1 < node_rows_) {
          g_sum += g_lateral_v_;
          link_idx[links] = i + node_cols_;
          link_g[links++] = g_lateral_v_;
        }
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          if (done[lane]) {
            continue;
          }
          std::vector<double>& t = states[lane].node_temps;
          double rhs =
              powers[lane * n + i] + g_vertical_[i] * substrate_temp_;
          for (std::size_t l = 0; l < links; ++l) {
            rhs += link_g[l] * t[link_idx[l]];
          }
          const double updated = rhs / g_sum;
          worst[lane] = std::max(worst[lane], std::abs(updated - t[i]));
          t[i] = updated;
        }
      }
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (done[lane]) {
        continue;
      }
      lane_sweeps[lane] = iterations;
      if (worst[lane] <= tolerance_k) {
        done[lane] = 1;
        --remaining;
      }
    }
  }
  if (infos != nullptr) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      (*infos)[lane].sweeps = lane_sweeps[lane];
      (*infos)[lane].relaxations =
          static_cast<std::uint64_t>(lane_sweeps[lane]) * n;
      (*infos)[lane].converged = done[lane] != 0;
    }
  }
  return states;
}

std::vector<double> ThermalGrid::register_temps(
    const ThermalState& state) const {
  TADFA_ASSERT(state.node_temps.size() == node_count());
  std::vector<double> out(floorplan_->num_registers());
  register_temps_into(state.node_temps.data(), out.data());
  return out;
}

void ThermalGrid::register_temps_into(const double* t,
                                      double* reg_temps) const {
  const std::size_t per_cell = nodes_per_cell();
  const double count = static_cast<double>(per_cell);
  const std::size_t* idx = reg_nodes_.data();
  const std::size_t regs = floorplan_->num_registers();
  for (std::size_t r = 0; r < regs; ++r, idx += per_cell) {
    double sum = 0.0;
    for (std::size_t k = 0; k < per_cell; ++k) {
      sum += t[idx[k]];
    }
    reg_temps[r] = sum / count;
  }
}

double ThermalGrid::stored_energy(const ThermalState& state) const {
  TADFA_ASSERT(state.node_temps.size() == node_count());
  double e = 0.0;
  for (std::size_t i = 0; i < node_count(); ++i) {
    e += cap_[i] * (state.node_temps[i] - substrate_temp_);
  }
  return e;
}

std::uint64_t ThermalGrid::config_digest() const {
  const std::uint64_t base = Hasher()
                                 .mix(floorplan_->config_digest())
                                 .mix(std::uint64_t{subdivision_})
                                 .digest();
  if (kernel_ == StepKernel::kReference) {
    return base;
  }
  // Fast tiers are tolerance-equal, not bit-equal: give them their own
  // key space so ResultCache never serves a fast-tier result to a
  // reference (--strict-math) run or vice versa. Reference grids keep the
  // historical digest so existing cache entries stay valid.
  return Hasher()
      .mix(base)
      .mix(std::string_view{"thermal.step_kernel"})
      .mix(static_cast<std::uint64_t>(kernel_))
      .digest();
}

}  // namespace tadfa::thermal
