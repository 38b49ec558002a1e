// The leakage kernel: P_ref · exp(c · (T − T_ref)) per cell.
//
// Every leakage figure in the library comes from this one loop:
// TechnologyParams::leakage_at, PowerModel::leakage_power, and through them
// the thermal DFA, ThermalReplay and bank gating. The exponential is an
// in-tree, branch-free exp (Cody–Waite reduction by ln 2, a degree-13
// polynomial, scaling by 2^k through the exponent bits) so the loop
// vectorises. Its arguments in [−708, 709] stay within 1 ULP of the exact
// exp and exp(0) is exactly 1; any other argument, ±inf and NaN included,
// is handed to std::exp, a choice that depends on the argument alone.
//
// The loop is cloned for AVX2 and baseline x86-64, and its translation
// unit is compiled without floating-point contraction, so every clone and
// every build (with or without -march flags that enable FMA) produces the
// same bits: only IEEE + − × on doubles and integer ops on the exponent.
#pragma once

#include <span>

#include "machine/technology.hpp"

namespace tadfa::power {

/// out[i] = leakage_ref_w · exp(leakage_temp_coeff · (temps_k[i] −
/// leakage_ref_temp_k)), ungated. `out` has temps_k.size() entries and
/// does not overlap `temps_k`.
void leakage_into(const machine::TechnologyParams& tech,
                  std::span<const double> temps_k, std::span<double> out);

}  // namespace tadfa::power
