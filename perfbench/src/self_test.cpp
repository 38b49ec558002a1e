// Self-test of the harness: known-bad outputs must be reported as failed,
// and the statistics helpers must match hand-computed values.
#include <cmath>
#include <iostream>

#include "bench.hpp"
#include "frontend/frontend.hpp"
#include "machine/machine_config.hpp"
#include "workload/kernels.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) {
    ++g_failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

bool non_commutative(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::kSub:
    case ir::Opcode::kDiv:
    case ir::Opcode::kRem:
    case ir::Opcode::kShl:
    case ir::Opcode::kShr:
    case ir::Opcode::kCmpLt:
    case ir::Opcode::kCmpLe:
    case ir::Opcode::kCmpGt:
    case ir::Opcode::kCmpGe:
      return true;
    default:
      return false;
  }
}

/// `func` with the operands of its first non-commutative two-register
/// instruction swapped; false when it has none.
bool flip_one_operand(ir::Function& func) {
  for (const ir::InstrRef ref : func.all_instructions()) {
    ir::Instruction& inst = func.instruction(ref);
    auto& ops = inst.operands();
    if (non_commutative(inst.opcode()) && ops.size() == 2 && ops[0].is_reg() &&
        ops[1].is_reg() && !(ops[0] == ops[1])) {
      std::swap(ops[0], ops[1]);
      return true;
    }
  }
  return false;
}

void test_statistics() {
  std::cout << "statistics helpers\n";
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  TailLatency t = tail_latency(hundred);
  expect(near(t.value, 90) && near(t.percentile, 90) && t.beyond == 10,
         "1..100: tail is 90 at p90 with 10 beyond");
  std::vector<double> forty(hundred.begin(), hundred.begin() + 40);
  t = tail_latency(forty);
  expect(near(t.value, 30) && near(t.percentile, 75) && t.beyond == 10,
         "1..40: tail is 30 at p75 with 10 beyond");
  std::vector<double> ties(30, 1.0);
  ties.insert(ties.end(), 15, 5.0);
  t = tail_latency(ties);
  expect(near(t.value, 1) && t.beyond == 15 &&
             near(t.percentile, 100.0 * 30 / 45),
         "30 x 1 and 15 x 5: ties step down to 1, 15 beyond, p66.67");
  t = tail_latency({3, 1, 2});
  expect(near(t.value, 3) && near(t.percentile, 100) && t.beyond == 0,
         "3 samples: the maximum at p100");
  const std::vector<double> a{1, 2, 3}, b{1, 2, 5}, zeros{0, 0}, c{3, 4};
  expect(near(stats::rmse(a, b), std::sqrt(4.0 / 3.0)),
         "rmse({1,2,3},{1,2,5}) = sqrt(4/3)");
  expect(near(stats::rmse(zeros, c), std::sqrt(12.5)),
         "rmse({0,0},{3,4}) = sqrt(12.5)");
  expect(all_samples({{3, 1}, {}, {2}}) == std::vector<double>{3, 1, 2},
         "all samples of three operations, one without any");
  expect(near(interquartile_mean({100, 1, 2, 3, 4, 5, 6, -50}), 3.5),
         "interquartile mean of 8 values drops 2 at each end: 3.5");
  expect(near(pooled_rmse({3, 4}), std::sqrt(12.5)),
         "pooled RMSE of per-function RMSEs 3 and 4 is sqrt(12.5)");
}

void test_closure() {
  std::cout << "dependency closure and recompiled sets\n";
  ir::Module m;
  for (const char* name : {"a", "b", "c", "d", "e"}) m.add_function(name);
  m.add_reference("a", "b");
  m.add_reference("b", "c");
  m.add_reference("d", "c");
  expect(dependency_closure(m, "c") ==
             std::vector<std::string>{"a", "b", "c", "d"},
         "closure of c over a->b->c, d->c is {a,b,c,d}");
  expect(dependency_closure(m, "a") == std::vector<std::string>{"a"},
         "closure of a is {a}");
  expect(check_recompiled(m, "b", {"a", "b"}).empty(),
         "the right recompiled set passes");
  expect(!check_recompiled(m, "b", {"b"}).empty(),
         "a recompiled set missing a dependent fails");
  expect(!check_recompiled(m, "b", {"a", "b", "e"}).empty(),
         "a recompiled set with an extra function fails");
}

void test_outputs() {
  std::cout << "output checks\n";
  const pipeline::CompileRig rig(*machine::find_machine("default"));
  const machine::TimingModel timing = rig.context().timing;
  pipeline::CompilationDriver driver(rig.context());
  driver.set_jobs(1);

  workload::Kernel k = workload::make_crc32(32);
  Program p;
  p.name = "crc32";
  p.func = k.func;
  p.args = k.default_args;
  p.init_memory = k.init_memory;
  p.expected = k.expected_result;
  ir::Module m;
  m.add_function(p.func);
  const auto compiled = driver.compile(m, kSpec);
  expect(compiled.ok, "crc32 compiles under the spec");
  if (!compiled.ok) {
    return;
  }
  const auto& out = compiled.functions[0];
  expect(check_semantics(out.run.state.func, p, timing).empty(),
         "the compiled crc32 passes the interpreter and expected-result check");

  ir::Function flipped = out.run.state.func;
  expect(flip_one_operand(flipped), "crc32 output has an operand to flip");
  expect(!check_semantics(flipped, p, timing).empty(),
         "a compiled function with one flipped operand is reported as failed");

  Program wrong = p;
  wrong.expected = *p.expected + 1;
  expect(!check_semantics(out.run.state.func, wrong, timing).empty(),
         "a result that misses the hand-written expected value fails");

  const ThermalCheck tc = check_thermal(rig, p, out);
  expect(tc.error.empty() && tc.converged && tc.rmse_k < kRmseToleranceK &&
             tc.output_peak_rise_k > 0,
         "thermal check: converged, RMSE " + fixed(tc.rmse_k, 3) +
             " K within tolerance, peak rise " +
             fixed(tc.output_peak_rise_k, 3) + " K");

  // Every texpr template parses and its C++ mirror agrees with the
  // interpreter on the input program.
  int agree = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const TexprProgram tx = make_texpr(seed, seed, "tx");
    const auto parsed = frontend::find_frontend("texpr")->parse(tx.source);
    if (!parsed.ok()) {
      std::cout << parsed.diagnostics_text() << "\n" << tx.source;
      continue;
    }
    Program q;
    q.func = parsed.module->functions()[0];
    q.args = {tx.arg};
    agree += interpret(q.func, q, timing) == tx.expected ? 1 : 0;
  }
  expect(agree == 12, "12 texpr programs parse and match their C++ mirror");
}

}  // namespace

int run_self_test() {
  g_failures = 0;
  test_statistics();
  test_closure();
  test_outputs();
  return g_failures;
}

}  // namespace perfbench
