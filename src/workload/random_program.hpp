// Seeded random program generation.
//
// Used by the FIG2 convergence experiment ("a very irregular data usage"),
// by property tests (allocator legality over program families), and by the
// non-convergence probe example. Programs always terminate: every loop is
// counter-bounded, and irregularity enters through data-dependent branches
// and skewed access patterns, not through unbounded control flow. Running
// time is not bounded by max_loop_depth, though: a loop emitted inside an
// if-arm keeps the depth of the code around the if, so loops can nest
// deeper than max_loop_depth through diamonds, and trip counts multiply.
// RandomProgramConfig{seed = 2944600222211448413, 120, 13, 0.25} nests six
// deep with max_loop_depth 2 and runs 143,442,948 instructions on
// argument 43794.
#pragma once

#include <cstdint>

#include "ir/function.hpp"

namespace tadfa::workload {

struct RandomProgramConfig {
  std::uint64_t seed = 1;
  /// Roughly how many instructions to generate.
  int target_instructions = 120;
  /// Live-value pool size — controls register pressure.
  int value_pool = 12;
  /// Maximum depth of loops nested directly in loop bodies. Loops inside
  /// if-arms do not count toward it (see above), so the actual nesting
  /// can be deeper.
  int max_loop_depth = 2;
  /// Probability that a generated segment is a loop.
  double loop_probability = 0.3;
  /// Probability that a segment is an if-diamond.
  double branch_probability = 0.3;
  /// Loop trip counts are drawn from [min_trip, max_trip].
  int min_trip = 4;
  int max_trip = 24;
  /// 0 = regular (balanced diamonds, uniform pool use);
  /// 1 = irregular (data-dependent branches, skewed hot values, uneven
  /// arm sizes). The paper's predictability knob.
  double irregularity = 0.0;
};

/// Generates a well-formed, terminating (though not necessarily short-
/// running) function. The function takes one
/// parameter (a data seed), reads/writes a scratch array at addresses
/// [0, 4096), and returns a checksum of the value pool.
ir::Function random_program(const RandomProgramConfig& config);

}  // namespace tadfa::workload
