// Unit tests for src/machine: technology params, floorplan geometry,
// chessboard/spread orders, banks, timing, register assignment mapping.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "machine/assignment.hpp"
#include "machine/floorplan.hpp"
#include "machine/machine_config.hpp"
#include "machine/technology.hpp"
#include "machine/timing.hpp"

namespace tadfa::machine {
namespace {

// ------------------------------------------------------------ technology ----

TEST(Technology, DefaultConfigsValid) {
  EXPECT_TRUE(RegisterFileConfig::default_config().valid());
  EXPECT_TRUE(RegisterFileConfig::small_config().valid());
  EXPECT_TRUE(RegisterFileConfig::large_config().valid());
}

TEST(Technology, InvalidConfigsRejected) {
  RegisterFileConfig c;
  c.rows = 7;  // 7*8 != 64
  EXPECT_FALSE(c.valid());
  RegisterFileConfig c2;
  c2.banks = 3;  // does not divide 8 columns
  EXPECT_FALSE(c2.valid());
  RegisterFileConfig c3;
  c3.num_registers = 0;
  EXPECT_FALSE(c3.valid());
}

TEST(Technology, LeakageGrowsExponentiallyWithTemp) {
  const TechnologyParams t;
  const double at_ref = t.leakage_at(t.leakage_ref_temp_k);
  EXPECT_EQ(at_ref, t.leakage_ref_w);  // exp(0) is exactly 1
  const double hotter = t.leakage_at(t.leakage_ref_temp_k + 20);
  EXPECT_GT(hotter, at_ref * 1.5);
  const double colder = t.leakage_at(t.leakage_ref_temp_k - 20);
  EXPECT_LT(colder, at_ref);
  // Exponential: ratio over equal steps is constant.
  const double r1 = t.leakage_at(350.0) / t.leakage_at(340.0);
  const double r2 = t.leakage_at(360.0) / t.leakage_at(350.0);
  EXPECT_NEAR(r1, r2, 1e-9);
}

TEST(Technology, CycleSecondsMatchesClock) {
  TechnologyParams t;
  t.clock_hz = 2.0e9;
  EXPECT_DOUBLE_EQ(t.cycle_seconds(), 0.5e-9);
}

// -------------------------------------------------------------- floorplan ----

TEST(Floorplan, RowMajorPlacement) {
  const Floorplan fp(RegisterFileConfig::default_config());
  EXPECT_EQ(fp.row_of(0), 0u);
  EXPECT_EQ(fp.col_of(0), 0u);
  EXPECT_EQ(fp.row_of(8), 1u);
  EXPECT_EQ(fp.col_of(8), 0u);
  EXPECT_EQ(fp.at(1, 0), 8u);
  EXPECT_EQ(fp.at(7, 7), 63u);
}

TEST(Floorplan, CellGeometry) {
  const Floorplan fp(RegisterFileConfig::default_config());
  const CellRect c0 = fp.cell(0);
  const CellRect c1 = fp.cell(1);
  EXPECT_DOUBLE_EQ(c0.x, 0.0);
  EXPECT_DOUBLE_EQ(c1.x, c0.w);
  EXPECT_GT(c0.w, 0.0);
  EXPECT_GT(c0.h, 0.0);
}

TEST(Floorplan, DistanceSymmetricAndMetric) {
  const Floorplan fp(RegisterFileConfig::default_config());
  EXPECT_DOUBLE_EQ(fp.distance(3, 3), 0.0);
  EXPECT_DOUBLE_EQ(fp.distance(0, 7), fp.distance(7, 0));
  // Triangle inequality spot check.
  EXPECT_LE(fp.distance(0, 63), fp.distance(0, 7) + fp.distance(7, 63) + 1e-12);
}

TEST(Floorplan, GridDistanceIsManhattan) {
  const Floorplan fp(RegisterFileConfig::default_config());
  EXPECT_EQ(fp.grid_distance(0, 0), 0u);
  EXPECT_EQ(fp.grid_distance(0, 9), 2u);   // (0,0) -> (1,1)
  EXPECT_EQ(fp.grid_distance(0, 63), 14u); // (0,0) -> (7,7)
}

TEST(Floorplan, NeighborsRespectBorders) {
  const Floorplan fp(RegisterFileConfig::default_config());
  EXPECT_EQ(fp.neighbors(0).size(), 2u);   // corner
  EXPECT_EQ(fp.neighbors(1).size(), 3u);   // edge
  EXPECT_EQ(fp.neighbors(9).size(), 4u);   // interior
}

TEST(Floorplan, BanksSplitColumns) {
  const Floorplan fp(RegisterFileConfig::default_config());  // 4 banks, 8 cols
  EXPECT_EQ(fp.bank_of(fp.at(0, 0)), 0u);
  EXPECT_EQ(fp.bank_of(fp.at(0, 1)), 0u);
  EXPECT_EQ(fp.bank_of(fp.at(0, 2)), 1u);
  EXPECT_EQ(fp.bank_of(fp.at(0, 7)), 3u);
  EXPECT_EQ(fp.bank_registers(0).size(), 16u);
  // Every register is in exactly one bank.
  std::size_t total = 0;
  for (std::uint32_t b = 0; b < fp.num_banks(); ++b) {
    total += fp.bank_registers(b).size();
  }
  EXPECT_EQ(total, fp.num_registers());
}

TEST(Floorplan, ChessboardCellsAlternate) {
  const Floorplan fp(RegisterFileConfig::default_config());
  const auto even = fp.chessboard_cells(true);
  const auto odd = fp.chessboard_cells(false);
  EXPECT_EQ(even.size(), 32u);
  EXPECT_EQ(odd.size(), 32u);
  // No even cell is adjacent to another even cell.
  const std::set<PhysReg> even_set(even.begin(), even.end());
  for (PhysReg r : even) {
    for (PhysReg n : fp.neighbors(r)) {
      EXPECT_EQ(even_set.count(n), 0u);
    }
  }
}

TEST(Floorplan, SpreadOrderIsPermutation) {
  const Floorplan fp(RegisterFileConfig::small_config());
  const auto order = fp.spread_order();
  std::set<PhysReg> unique(order.begin(), order.end());
  EXPECT_EQ(order.size(), fp.num_registers());
  EXPECT_EQ(unique.size(), fp.num_registers());
}

TEST(Floorplan, SpreadOrderSecondPickIsFar) {
  const Floorplan fp(RegisterFileConfig::default_config());
  const auto order = fp.spread_order();
  // The second pick should be at least half the array diagonal away.
  const double diag = fp.distance(0, 63);
  EXPECT_GE(fp.distance(order[0], order[1]), diag / 2);
}

// ----------------------------------------------------------------- timing ----

TEST(Timing, DefaultsAreSane) {
  const TimingModel t;
  EXPECT_EQ(t.latency(ir::Opcode::kAdd), 1);
  EXPECT_EQ(t.latency(ir::Opcode::kMul), 3);
  EXPECT_EQ(t.latency(ir::Opcode::kDiv), 12);
  EXPECT_EQ(t.latency(ir::Opcode::kLoad), 2);
  EXPECT_EQ(t.latency(ir::Opcode::kNop), 1);
}

TEST(Timing, OverrideLatency) {
  TimingModel t;
  t.set_latency(ir::Opcode::kLoad, 10);
  EXPECT_EQ(t.latency(ir::Opcode::kLoad), 10);
}

TEST(Timing, CyclesUsesOpcode) {
  const TimingModel t;
  const ir::Instruction mul(ir::Opcode::kMul, 0,
                            {ir::Operand::reg(1), ir::Operand::reg(2)});
  EXPECT_EQ(t.cycles(mul), 3);
}

// -------------------------------------------------------------- assignment ----

TEST(Assignment, AssignAndQuery) {
  RegisterAssignment a(4);
  EXPECT_FALSE(a.assigned(0));
  a.assign(0, 7);
  EXPECT_TRUE(a.assigned(0));
  EXPECT_EQ(a.phys(0), 7u);
  EXPECT_EQ(a.vreg_count(), 4u);
}

TEST(Assignment, UsedPhysicalDeduplicates) {
  RegisterAssignment a(3);
  a.assign(0, 5);
  a.assign(1, 5);
  a.assign(2, 2);
  EXPECT_EQ(a.used_physical(), (std::vector<PhysReg>{2, 5}));
}

TEST(Assignment, CoversChecksAllAppearances) {
  ir::Function f("c");
  const ir::Reg p = f.add_param();
  const auto blk = f.add_block();
  f.ensure_regs(2);
  f.block(blk).append(ir::Instruction(ir::Opcode::kMov, 1,
                                      {ir::Operand::reg(p)}));
  f.block(blk).append(
      ir::Instruction(ir::Opcode::kRet, ir::kInvalidReg,
                      {ir::Operand::reg(1)}));
  RegisterAssignment a(2);
  EXPECT_FALSE(a.covers(f));
  a.assign(0, 0);
  EXPECT_FALSE(a.covers(f));
  a.assign(1, 1);
  EXPECT_TRUE(a.covers(f));
}

// ---------------------------------------------------------------- digests ----

/// One digest-sensitivity case: perturb a single field of the config
/// that cache keys are derived from. Every field the thermal and power
/// models read must flip the digest, or a stale cache entry computed
/// under the old value would satisfy a lookup under the new one.
struct DigestCase {
  const char* field;
  void (*perturb)(RegisterFileConfig&);
};

const DigestCase kDigestCases[] = {
    {"num_registers", [](RegisterFileConfig& c) { c.num_registers *= 2; }},
    {"rows", [](RegisterFileConfig& c) { c.rows *= 2; }},
    {"cols", [](RegisterFileConfig& c) { c.cols *= 2; }},
    {"banks", [](RegisterFileConfig& c) { c.banks *= 2; }},
    {"cell_width_m", [](RegisterFileConfig& c) { c.tech.cell_width_m *= 1.5; }},
    {"cell_height_m",
     [](RegisterFileConfig& c) { c.tech.cell_height_m *= 1.5; }},
    {"die_thickness_m",
     [](RegisterFileConfig& c) { c.tech.die_thickness_m *= 1.5; }},
    {"read_energy_j",
     [](RegisterFileConfig& c) { c.tech.read_energy_j *= 1.5; }},
    {"write_energy_j",
     [](RegisterFileConfig& c) { c.tech.write_energy_j *= 1.5; }},
    {"memory_access_energy_j",
     [](RegisterFileConfig& c) { c.tech.memory_access_energy_j *= 1.5; }},
    {"leakage_ref_w",
     [](RegisterFileConfig& c) { c.tech.leakage_ref_w *= 1.5; }},
    {"leakage_temp_coeff",
     [](RegisterFileConfig& c) { c.tech.leakage_temp_coeff *= 1.5; }},
    {"leakage_ref_temp_k",
     [](RegisterFileConfig& c) { c.tech.leakage_ref_temp_k += 5.0; }},
    {"silicon_conductivity",
     [](RegisterFileConfig& c) { c.tech.silicon_conductivity *= 1.5; }},
    {"silicon_volumetric_heat",
     [](RegisterFileConfig& c) { c.tech.silicon_volumetric_heat *= 1.5; }},
    {"vertical_resistance_scale",
     [](RegisterFileConfig& c) { c.tech.vertical_resistance_scale *= 1.5; }},
    {"substrate_temp_k",
     [](RegisterFileConfig& c) { c.tech.substrate_temp_k += 5.0; }},
    {"ambient_temp_k",
     [](RegisterFileConfig& c) { c.tech.ambient_temp_k += 5.0; }},
    {"clock_hz", [](RegisterFileConfig& c) { c.tech.clock_hz *= 1.5; }},
};

TEST(ConfigDigest, EveryFieldPerturbationFlipsTheDigest) {
  const std::uint64_t base =
      RegisterFileConfig::default_config().config_digest();
  EXPECT_EQ(RegisterFileConfig::default_config().config_digest(), base);

  std::map<std::uint64_t, const char*> seen;
  seen[base] = "(base)";
  for (const DigestCase& c : kDigestCases) {
    RegisterFileConfig cfg = RegisterFileConfig::default_config();
    c.perturb(cfg);
    const std::uint64_t digest = cfg.config_digest();
    EXPECT_NE(digest, base) << c.field << " is not folded into the digest";
    // Pairwise distinct too: two different perturbations colliding would
    // be as silent a cache bug as a missing field.
    const auto [it, inserted] = seen.emplace(digest, c.field);
    EXPECT_TRUE(inserted) << c.field << " collides with " << it->second;
  }
}

TEST(MachineRegistryTest, NameIsNotPartOfTheDigest) {
  // Renaming a machine must not orphan its cache entries.
  MachineConfig a{"alpha", "", RegisterFileConfig::default_config()};
  MachineConfig b{"omega", "", RegisterFileConfig::default_config()};
  EXPECT_EQ(a.config_digest(), b.config_digest());
  EXPECT_EQ(a.config_digest(),
            RegisterFileConfig::default_config().config_digest());
}

TEST(MachineRegistryTest, EntriesAreValidNamedAndDigestDistinct) {
  const MachineRegistry& reg = default_machine_registry();
  ASSERT_GE(reg.entries().size(), 4u);
  EXPECT_NE(reg.find("default"), nullptr);
  EXPECT_EQ(reg.find("missing-machine"), nullptr);

  std::map<std::uint64_t, std::string> seen;
  for (const MachineConfig& mc : reg.entries()) {
    EXPECT_TRUE(mc.valid()) << mc.name;
    EXPECT_FALSE(mc.description.empty()) << mc.name;
    ASSERT_EQ(reg.find(mc.name), &mc);
    const auto [it, inserted] = seen.emplace(mc.config_digest(), mc.name);
    EXPECT_TRUE(inserted) << mc.name << " shares a digest with "
                          << it->second;
  }
  EXPECT_EQ(reg.names().size(), reg.entries().size());
}

}  // namespace
}  // namespace tadfa::machine
