// Seeded inputs. The program receives only what is generated here; the
// seed never reaches it.
#include <set>
#include <sstream>

#include "bench.hpp"
#include "ir/printer.hpp"
#include "sim/interpreter.hpp"
#include "workload/kernels.hpp"
#include "workload/random_program.hpp"

namespace perfbench {
namespace {

/// One of the ten kernel families, parameters varied by `salt`. The
/// ranges keep every family's cost within a few x of the others, so the
/// module's compile cost depends on the mix, which is fixed, more than on
/// the seed.
workload::Kernel kernel_variant(std::size_t family, std::uint64_t salt) {
  const auto s = [salt](std::uint64_t k, std::uint64_t n) {
    return static_cast<std::int64_t>(mix64(salt, k) % n);
  };
  switch (family % 10) {
    case 0:
      return workload::make_vecsum(64 + 16 * s(0, 8));
    case 1:
      return workload::make_fir(32 + 16 * s(0, 6),
                                4 + static_cast<int>(s(1, 5)));
    case 2:
      return workload::make_matmul(4 + s(0, 6));
    case 3:
      return workload::make_idct8(8 + 4 * s(0, 8));
    case 4:
      return workload::make_crc32(16 + 8 * s(0, 6));
    case 5:
      return workload::make_stencil3(32 + 16 * s(0, 6));
    case 6:
      return workload::make_poly7(32 + 16 * s(0, 6));
    case 7:
      return workload::make_accumulators(64, 8 + static_cast<int>(s(0, 16)));
    case 8:
      return workload::make_hot_cold(64, 2 + static_cast<int>(s(0, 4)),
                                     4 + static_cast<int>(s(1, 6)));
    default:
      return workload::make_counter(128 * (1 + s(0, 4)));
  }
}

/// Whether a random program returns under the interpreter within a
/// million instructions. Some seeded random programs never do (one from
/// seed 307 ran past the interpreter's 50M-instruction limit), and a
/// program that traps or runs away gives the oracle nothing to compare, so
/// generation draws another. Random programs touch only words [0, 4096),
/// so a small memory keeps this check out of the peak RSS the benchmark
/// reports for the program.
bool runs_to_completion(const Program& p) {
  sim::ExecutionOptions options;
  options.max_instructions = 1'000'000;
  options.memory_words = 1u << 13;
  sim::Interpreter interp(p.func, machine::TimingModel{}, options);
  return interp.run(p.args).ok();
}

}  // namespace

InputModule make_module(std::uint64_t seed, std::size_t functions,
                        const std::string& name_prefix) {
  InputModule out;
  std::set<std::uint64_t> seen;
  std::size_t kernels = 0;
  for (std::size_t i = 0; i < functions; ++i) {
    Program p;
    const bool random_slot = i % 3 == 0;
    const std::size_t family = kernels;
    if (!random_slot) {
      ++kernels;
    }
    for (std::uint64_t attempt = 0;; ++attempt) {
      const std::uint64_t salt = mix64(mix64(seed, i), attempt);
      // A family whose parameter space is exhausted falls back to a
      // random program after a few attempts.
      const bool random = random_slot || attempt >= 8;
      if (random) {
        workload::RandomProgramConfig cfg;
        cfg.seed = salt;
        cfg.target_instructions = 120;
        cfg.value_pool = 8 + static_cast<int>(salt % 12);
        cfg.irregularity = static_cast<double>(salt % 4) / 4.0;
        p.func = workload::random_program(cfg);
        p.args = {static_cast<std::int64_t>(mix64(salt, 99) % 100000)};
        p.init_memory = nullptr;
        p.expected.reset();
      } else {
        workload::Kernel k = kernel_variant(family, salt);
        p.func = std::move(k.func);
        p.args = k.default_args;
        p.init_memory = k.init_memory;
        p.expected = k.expected_result;
      }
      if ((!random || runs_to_completion(p)) &&
          seen.insert(ir::fingerprint(p.func)).second) {
        break;
      }
    }
    p.name = name_prefix + p.func.name() + "_" + std::to_string(i);
    p.func.set_name(p.name);
    out.module.add_function(p.func);
    out.programs.push_back(std::move(p));
  }
  // Every fourth function references a seeded earlier one; targets carry
  // references of their own, so dependents chain transitively.
  for (std::size_t i = 4; i < functions; i += 4) {
    const std::size_t target = mix64(seed ^ 0x7265662d65646765ull, i) % i;
    out.module.add_reference(out.programs[i].name, out.programs[target].name);
  }
  out.text = ir::to_string(out.module);
  return out;
}

TexprProgram make_texpr(std::uint64_t seed, std::size_t shape,
                        const std::string& name) {
  TexprProgram t;
  t.name = name;
  const auto r = [seed](std::uint64_t k, std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(mix64(seed, k) %
                                          static_cast<std::uint64_t>(hi - lo + 1));
  };
  const std::int64_t n = r(1, 16, 64);
  const std::int64_t a = r(2, 2, 9);
  const std::int64_t c = r(3, 1, 50);
  const std::int64_t m = r(4, 5, 31);
  t.arg = r(5, 1, 1000);
  std::ostringstream src;
  // Each template is mirrored below by plain C++ over the same values:
  // that mirror, not the program, provides the expected result. All
  // intermediate values stay positive and far from overflow.
  switch (shape % 3) {
    case 0: {
      src << "fn " << name << "(x) {\n"
          << "  let acc = " << c << ";\n  let i = 0;\n"
          << "  while (i < " << n << ") {\n"
          << "    acc = acc + (x + i) * " << a << ";\n"
          << "    acc = acc ^ (i & " << m << ");\n"
          << "    i = i + 1;\n  }\n  return acc;\n}\n";
      std::int64_t acc = c;
      for (std::int64_t i = 0; i < n; ++i) {
        acc = acc + (t.arg + i) * a;
        acc = acc ^ (i & m);
      }
      t.expected = acc;
      break;
    }
    case 1: {
      src << "fn " << name << "(x) {\n"
          << "  let lo = 100000;\n  let hi = 0;\n  let cnt = 0;\n"
          << "  let i = 0;\n"
          << "  while (i < " << n << ") {\n"
          << "    let v = (x * i + " << c << ") % " << m << ";\n"
          << "    lo = min(lo, v);\n    hi = max(hi, v);\n"
          << "    if (v > " << m / 2 << ") {\n      cnt = cnt + " << a
          << ";\n    } else {\n      cnt = cnt + 1;\n    }\n"
          << "    i = i + 1;\n  }\n  return hi - lo + cnt;\n}\n";
      std::int64_t lo = 100000;
      std::int64_t hi = 0;
      std::int64_t cnt = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t v = (t.arg * i + c) % m;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        cnt += v > m / 2 ? a : 1;
      }
      t.expected = hi - lo + cnt;
      break;
    }
    default: {
      src << "fn " << name << "(x) {\n"
          << "  let base = 256;\n  let i = 0;\n"
          << "  while (i < " << n << ") {\n"
          << "    base[i] = x + i * " << a << ";\n    i = i + 1;\n  }\n"
          << "  let acc = 0;\n  i = 1;\n"
          << "  while (i < " << n << ") {\n"
          << "    acc = acc + (base[i] - base[i - 1]) * " << c << " + (base[i] >> 2);\n"
          << "    i = i + 1;\n  }\n  return acc;\n}\n";
      std::vector<std::int64_t> base(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        base[static_cast<std::size_t>(i)] = t.arg + i * a;
      }
      std::int64_t acc = 0;
      for (std::int64_t i = 1; i < n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        acc = acc + (base[u] - base[u - 1]) * c + (base[u] >> 2);
      }
      t.expected = acc;
      break;
    }
  }
  t.source = src.str();
  return t;
}

}  // namespace perfbench
