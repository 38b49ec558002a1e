// Compact RC thermal model of the register file (HotSpot-class).
//
// Substitutes for the HW/SW thermal emulation framework the paper cites as
// [5]. Each register cell is subdivided into `subdivision`² grid nodes
// (Sec. 3's accuracy/cost knob: "increasing the number of points would
// increase accuracy, but at the cost of increased computation time").
//
// Per node:
//   - capacitance C from node volume × volumetric heat capacity;
//   - lateral conductances to the 4-neighbors (silicon conduction);
//   - a vertical conductance to the surrounding die (spreading resistance
//     into the substrate, which is held at substrate_temp_k).
//
// The model is linear; leakage's temperature dependence is closed by the
// caller (power model) between steps.
//
// Solver tiers: the reference tier (StepKernel::kReference, always used
// when the caller asks for --strict-math) walks the grid row by row with
// fixed neighbour offsets, but performs exactly the original scalar loop's
// operations in its order, so its results are bit-identical to it (a
// golden digest in thermal_test pins them). The fast tiers trade
// bit-identity for speed within a documented tolerance: kSimd keeps the
// reference's per-element operation order over structure-of-arrays tables
// under `#pragma omp simd`; kAvx2 hand-vectorizes with FMA and a hoisted
// diagonal. Fast-tier steady_state() uses active-set Gauss-Seidel (only
// nodes whose last update exceeded δ — and their neighbors — are
// re-relaxed) and both tiers accept a warm start.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "machine/floorplan.hpp"

namespace tadfa::thermal {

/// Discrete approximation of the RF temperature field: one value per grid
/// node, in kelvin.
struct ThermalState {
  std::vector<double> node_temps;

  friend bool operator==(const ThermalState&, const ThermalState&) = default;
};

/// How a transient step of length dt is cut into explicit-Euler substeps:
/// `substeps` substeps of `h` seconds each (none when dt is 0). A pure
/// function of dt and the grid, so callers that step the same dt many
/// times plan it once.
struct StepPlan {
  int substeps = 0;
  double h = 0;
};

/// Solver tier for the transient step kernel.
enum class StepKernel : std::uint8_t {
  kReference = 0,  ///< scalar loop; bit-identical across builds
  kSimd = 1,       ///< SoA + omp simd; same per-element operation order
  kAvx2 = 2,       ///< AVX2+FMA intrinsics; documented tolerance only
};

const char* to_string(StepKernel kernel);

/// Knobs for steady_state(). The defaults reproduce the historical
/// behavior (cold start at substrate temperature, 1e-9 K tolerance).
struct SteadyStateOptions {
  double tolerance_k = 1e-9;
  /// Start iterating from this state instead of the substrate-temperature
  /// initial state. Must have node_count() entries when set. A warm start
  /// near the solution cuts sweeps dramatically; correctness is unaffected
  /// (the system is strictly diagonally dominant, so Gauss-Seidel
  /// converges from any start).
  const ThermalState* warm_start = nullptr;
  int max_sweeps = 100000;
};

/// What steady_state() did, for benchmarks and convergence tests.
struct SteadyStateInfo {
  int sweeps = 0;               ///< full or partial passes over the grid
  std::uint64_t relaxations = 0;  ///< individual node updates performed
  bool converged = false;
};

class ThermalGrid {
 public:
  /// `subdivision` >= 1: grid points per cell edge (nodes per cell =
  /// subdivision²). `kernel` selects the transient-step tier; an
  /// unavailable tier (kAvx2 on a CPU without AVX2+FMA) degrades to
  /// kSimd. Defaults to default_step_kernel().
  ThermalGrid(const machine::Floorplan& floorplan, unsigned subdivision = 1);
  ThermalGrid(const machine::Floorplan& floorplan, unsigned subdivision,
              StepKernel kernel);

  /// Build-default tier: kReference unless the build enabled TADFA_SIMD,
  /// then the fastest available fast tier (kAvx2 if the CPU supports
  /// AVX2+FMA, else kSimd).
  static StepKernel default_step_kernel();

  /// Whether `kernel` can run on this build + CPU.
  static bool kernel_available(StepKernel kernel);

  /// The tier this grid resolved to at construction.
  StepKernel step_kernel() const { return kernel_; }

  const machine::Floorplan& floorplan() const { return *floorplan_; }
  unsigned subdivision() const { return subdivision_; }
  std::size_t node_count() const { return cap_.size(); }
  std::size_t node_rows() const { return node_rows_; }
  std::size_t node_cols() const { return node_cols_; }

  /// Node indices covering a register's cell (subdivision² of them).
  std::span<const std::size_t> nodes_of(machine::PhysReg r) const;

  /// Register whose cell contains this node.
  machine::PhysReg register_of(std::size_t node) const;

  /// State with every node at the substrate temperature.
  ThermalState initial_state() const;

  /// Advances the transient solution by `dt` seconds with per-register
  /// power `reg_power_w` (watts, spread uniformly over each cell's nodes).
  /// Internally substeps to respect the explicit-Euler stability limit.
  /// Uses the grid's constructed kernel tier.
  void step(ThermalState& state, std::span<const double> reg_power_w,
            double dt) const;

  /// step() through an explicit tier, regardless of the constructed one.
  /// Callers needing reproducible results (--strict-math) pass
  /// StepKernel::kReference. The tier must be kernel_available().
  /// Equivalent to spread_power_into + plan_step + advance.
  void step_with(StepKernel kernel, ThermalState& state,
                 std::span<const double> reg_power_w, double dt) const;

  // Raw-buffer primitives behind step_with() and register_temps(), for
  // callers that step many times and keep their own buffers. Node buffers
  // hold node_count() doubles, register buffers num_registers().

  /// The substep plan step_with() uses for `dt` (>= 0).
  StepPlan plan_step(double dt) const;

  /// Runs `plan` on node temperatures `t` under per-node power
  /// `node_power` through `kernel`; `flux` is node-sized scratch.
  void advance(StepKernel kernel, double* t, const double* node_power,
               const StepPlan& plan, double* flux) const;

  /// Spreads per-register watts uniformly over each cell's nodes,
  /// writing every entry of `node_power`.
  void spread_power_into(std::span<const double> reg_power_w,
                         double* node_power) const;

  /// Per-register temperatures (average of each cell's nodes) of the node
  /// temperatures `t`, written to `reg_temps`.
  void register_temps_into(const double* t, double* reg_temps) const;

  /// True when register r's cell is exactly node r (subdivision 1). Then
  /// spread_power_into and register_temps_into are exact copies (x·1.0,
  /// and (0.0 + x)/1.0 for any x but −0.0, which no temperature in kelvin
  /// is), so callers may use a node buffer as the register buffer and the
  /// other way round.
  bool registers_are_nodes() const { return registers_are_nodes_; }

  /// Advances `states.size()` independent transient states by the same
  /// `dt` in one pass over the shared tables (per-lane powers in
  /// `reg_powers`). Each lane's arithmetic is identical to a sequential
  /// step() call, so results are bit-identical to the loop it replaces;
  /// the win is table locality across lanes.
  void step_batch(std::span<ThermalState> states,
                  std::span<const std::vector<double>> reg_powers,
                  double dt) const;

  /// Steady-state temperatures under constant per-register power
  /// (Gauss-Seidel to `tolerance_k`). Reference-tier grids run full
  /// sweeps (bit-identical to the historical loop); fast-tier grids use
  /// active-set sweeps that converge to the same tolerance.
  ThermalState steady_state(std::span<const double> reg_power_w,
                            double tolerance_k = 1e-9) const;

  /// Full-control overload: warm start, tolerance, sweep cap, and
  /// optional convergence stats.
  ThermalState steady_state(std::span<const double> reg_power_w,
                            const SteadyStateOptions& options,
                            SteadyStateInfo* info = nullptr) const;

  /// Solves `reg_powers.size()` steady states together over the shared
  /// tables, with per-lane early exit once a lane converges. Per-lane
  /// arithmetic matches the reference full-sweep solver exactly, so each
  /// returned state is bit-identical to a sequential
  /// steady_state(reg_powers[lane], tolerance_k) call from the same
  /// (optional, shared) warm start.
  std::vector<ThermalState> steady_state_batch(
      std::span<const std::vector<double>> reg_powers,
      double tolerance_k = 1e-9, const ThermalState* warm_start = nullptr,
      std::vector<SteadyStateInfo>* infos = nullptr) const;

  /// Largest dt (seconds) a single explicit-Euler step may take.
  double max_stable_dt() const { return stable_dt_; }

  /// Per-register temperatures: average of each cell's nodes.
  std::vector<double> register_temps(const ThermalState& state) const;

  /// Sum over nodes of C·(T - substrate): stored thermal energy relative
  /// to the substrate (J). Used by conservation tests.
  double stored_energy(const ThermalState& state) const;

  double substrate_temp() const { return substrate_temp_; }

  /// Digest of everything the solution depends on: the floorplan config
  /// (geometry and thermal coefficients) plus the subdivision knob. The
  /// conductance/capacitance tables are derived deterministically from
  /// these, so they carry no information of their own. The kernel tier is
  /// folded in only when it departs from kReference — fast tiers may
  /// differ in low-order bits, so their results must not share ResultCache
  /// keys with reference runs, while reference-tier digests stay
  /// compatible with every pre-tier cache entry.
  std::uint64_t config_digest() const;

 private:
  std::size_t node_index(std::size_t row, std::size_t col) const {
    return row * node_cols_ + col;
  }
  std::size_t nodes_per_cell() const {
    return static_cast<std::size_t>(subdivision_) * subdivision_;
  }

  /// One explicit-Euler substep of length `h` through `kernel`, updating
  /// `t` in place. `p` is per-node power, `flux` is caller scratch.
  void substep_with(StepKernel kernel, double* t, const double* p,
                    double* flux, double h) const;

  /// The reference tier's flux for one node row: W, E, N, S links read at
  /// offsets ±1 and ±cols, absent ones (grid edges) skipped.
  template <bool kHasNorth, bool kHasSouth>
  void reference_flux_row(std::size_t row, const double* t, const double* p,
                          double* flux) const;

  /// Spreads per-register watts uniformly over each cell's nodes into
  /// `p` (resized to node_count()).
  void spread_power(std::span<const double> reg_power_w,
                    std::vector<double>& p) const;

  ThermalState steady_state_full_sweeps(const std::vector<double>& p,
                                        const SteadyStateOptions& options,
                                        SteadyStateInfo* info) const;
  ThermalState steady_state_active_set(const std::vector<double>& p,
                                       const SteadyStateOptions& options,
                                       SteadyStateInfo* info) const;

  const machine::Floorplan* floorplan_;
  unsigned subdivision_;
  StepKernel kernel_ = StepKernel::kReference;
  std::size_t node_rows_ = 0;
  std::size_t node_cols_ = 0;
  double substrate_temp_ = 0;

  std::vector<double> cap_;              // C per node (J/K)
  std::vector<double> g_vertical_;       // node -> substrate (W/K)
  double g_lateral_h_ = 0;               // east-west neighbor link (W/K)
  double g_lateral_v_ = 0;               // north-south neighbor link (W/K)
  double stable_dt_ = 0;

  // Flattened neighbor tables for the active-set steady-state solver: 4
  // slots per node in fixed W/E/N/S order (absent neighbors point at the
  // node itself with conductance 0, so relaxation is branch-free).
  std::vector<std::size_t> nbr_index_;   // 4 per node
  std::vector<double> nbr_g_;            // 4 per node (W/K; 0 = no link)

  // Structure-of-arrays mirrors of the tables above for the fast tiers:
  // slot-major planes of n entries each (slot s plane starts at s·n), so
  // the per-slot flux accumulation streams contiguously.
  std::vector<double> nbr_g_soa_;          // 4 planes
  std::vector<std::int32_t> nbr_idx_soa_;  // 4 planes
  std::vector<double> g_diag_;    // g_vertical + Σ slot g (W/K)
  std::vector<double> gv_tsub_;   // g_vertical · substrate_temp (W)
  std::vector<double> inv_cap_;   // 1 / C (K/J)

  // Register -> node table: register r's cell covers nodes
  // reg_nodes_[r·nodes_per_cell() ..], row-major within the cell.
  std::vector<std::size_t> reg_nodes_;
  std::vector<machine::PhysReg> node_owner_;
  bool registers_are_nodes_ = false;
};

}  // namespace tadfa::thermal
