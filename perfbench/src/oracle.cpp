// The oracle: everything that decides whether an output is right, made
// apart from the code under test. It runs outside every timed region.
#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "pipeline/pass_manager.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"

namespace perfbench {
namespace {

struct Traced {
  sim::ExecutionResult run;
  power::AccessTrace trace;
};

Traced run_traced(const ir::Function& func,
                  const machine::RegisterAssignment& assignment,
                  const Program& program, const pipeline::CompileRig& rig,
                  const machine::TimingModel& timing) {
  sim::Interpreter interp(func, timing);
  if (program.init_memory) {
    program.init_memory(interp.memory());
  }
  Traced t{{}, power::AccessTrace(rig.floorplan().num_registers())};
  t.run = interp.run_traced(program.args, assignment, t.trace);
  return t;
}

/// Replay of one program run from substrate temperature: the DFA predicts
/// the state after one execution, frequency-scaled, from that boundary.
sim::ReplayResult replay(const pipeline::CompileRig& rig,
                         const power::AccessTrace& trace) {
  const sim::ThermalReplay replay(rig.grid(), rig.power());
  return replay.replay(trace, sim::ReplayConfig{});
}

}  // namespace

std::optional<std::int64_t> interpret(const ir::Function& func,
                                      const Program& program,
                                      const machine::TimingModel& timing) {
  sim::Interpreter interp(func, timing);
  if (program.init_memory) {
    program.init_memory(interp.memory());
  }
  const sim::ExecutionResult r = interp.run(program.args);
  if (!r.ok()) {
    return std::nullopt;
  }
  return r.return_value.value_or(0);
}

std::string check_semantics(const ir::Function& output, const Program& input,
                            const machine::TimingModel& timing) {
  const auto want = interpret(input.func, input, timing);
  const auto got = interpret(output, input, timing);
  if (!want) {
    return input.name + ": input traps under the interpreter";
  }
  if (!got) {
    return input.name + ": compiled output traps under the interpreter";
  }
  if (*got != *want) {
    return input.name + ": compiled output returns " + std::to_string(*got) +
           ", input returns " + std::to_string(*want);
  }
  if (input.expected && *got != *input.expected) {
    return input.name + ": result " + std::to_string(*got) +
           " differs from the hand-written expected " +
           std::to_string(*input.expected);
  }
  return "";
}

std::string check_compiled(const pipeline::CompileRig& rig,
                           const Program& input,
                           const pipeline::FunctionCompileResult& compiled,
                           ThermalCheck* thermal) {
  std::string why =
      check_semantics(compiled.run.state.func, input, rig.context().timing);
  if (!why.empty()) {
    return why;
  }
  *thermal = check_thermal(rig, input, compiled);
  if (!thermal->error.empty()) {
    return thermal->error;
  }
  if (thermal->converged && thermal->rmse_k > kRmseToleranceK) {
    return input.name + ": DFA RMSE " + fixed(thermal->rmse_k, 3) +
           " K exceeds the tolerance";
  }
  return "";
}

ThermalCheck check_thermal(const pipeline::CompileRig& rig,
                           const Program& input,
                           const pipeline::FunctionCompileResult& compiled) {
  ThermalCheck c;
  const pipeline::PipelineContext ctx = rig.context();
  const pipeline::PassManager pm(ctx);
  const pipeline::PipelineRunResult prefix = pm.run(input.func, kDfaPrefixSpec);
  if (!prefix.ok || prefix.state.dfa() == nullptr ||
      !prefix.state.has_assignment()) {
    c.error = input.name + ": DFA prefix did not compile: " + prefix.error;
    return c;
  }
  const auto* full = pass_stats(compiled.run, "thermal-dfa");
  const auto* again = pass_stats(prefix, "thermal-dfa");
  if (full == nullptr || again == nullptr || full->summary != again->summary) {
    c.error = input.name + ": the DFA prefix disagrees with the compile";
    return c;
  }
  const core::ThermalDfaResult& dfa = *prefix.state.dfa();
  c.converged = dfa.converged;
  c.iterations = dfa.iterations;

  const Traced before = run_traced(prefix.state.func, *prefix.state.assignment(),
                                   input, rig, ctx.timing);
  if (!before.run.ok()) {
    c.error = input.name + ": DFA-stage code traps under the interpreter";
    return c;
  }
  const std::vector<double> replayed = replay(rig, before.trace).final_reg_temps;
  if (dfa.exit_reg_temps_k.empty() ||
      dfa.exit_reg_temps_k.size() != replayed.size()) {
    c.error = input.name + ": the DFA predicts " +
              std::to_string(dfa.exit_reg_temps_k.size()) +
              " register temperatures, the replay has " +
              std::to_string(replayed.size());
    return c;
  }
  c.rmse_k = stats::rmse(dfa.exit_reg_temps_k, replayed);

  const auto* assignment = compiled.run.state.assignment();
  if (assignment == nullptr) {
    c.error = input.name + ": compiled output carries no assignment";
    return c;
  }
  const Traced after =
      run_traced(compiled.run.state.func, *assignment, input, rig, ctx.timing);
  if (!after.run.ok()) {
    c.error = input.name + ": compiled output traps under the interpreter";
    return c;
  }
  const sim::ReplayResult out = replay(rig, after.trace);
  const double peak = *std::max_element(out.peak_reg_temps.begin(),
                                        out.peak_reg_temps.end());
  c.output_peak_rise_k = peak - rig.grid().substrate_temp();
  return c;
}

std::vector<std::string> dependency_closure(const ir::Module& module,
                                            const std::string& name) {
  std::set<std::string> closure{name};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const ir::ModuleReference& ref : module.references()) {
      if (closure.count(ref.to) != 0 && closure.insert(ref.from).second) {
        grew = true;
      }
    }
  }
  return {closure.begin(), closure.end()};
}

std::string check_recompiled(const ir::Module& module, const std::string& edited,
                             const std::set<std::string>& recompiled) {
  const auto closure = dependency_closure(module, edited);
  if (recompiled == std::set<std::string>(closure.begin(), closure.end())) {
    return "";
  }
  return "edit of " + edited + " recompiled " +
         std::to_string(recompiled.size()) + " functions, its closure has " +
         std::to_string(closure.size());
}

const pipeline::PassRunStats* pass_stats(const pipeline::PipelineRunResult& run,
                                         const std::string& prefix) {
  for (const auto& s : run.pass_stats) {
    if (s.name.rfind(prefix, 0) == 0) {
      return &s;
    }
  }
  return nullptr;
}

std::pair<int, bool> dfa_iterations(const std::string& summary) {
  int iters = 0;
  std::sscanf(summary.c_str(), "%d", &iters);
  return {iters, summary.find("NOT converged") == std::string::npos};
}

void PassTotals::add_pass_seconds(
    const std::vector<pipeline::PassRunStats>& stats) {
  static const std::pair<const char*, const char*> kStems[] = {
      {"cse", "cse"},
      {"dce", "dce"},
      {"alloc=linear", "alloc_linear"},
      {"alloc=coloring", "alloc_coloring"},
      {"thermal-dfa", "thermal_dfa"},
      {"schedule", "schedule"}};
  for (const auto& s : stats) {
    for (const auto& [prefix, stem] : kStems) {
      if (s.name.rfind(prefix, 0) == 0) {
        pass_seconds[stem] += s.seconds;
        break;
      }
    }
  }
}

void PassTotals::add(const pipeline::PipelineRunResult& run,
                     const std::string& machine) {
  ++functions;
  add_pass_seconds(run.pass_stats);
  if (const auto* s = pass_stats(run, "thermal-dfa")) {
    const auto [iters, converged] = dfa_iterations(s->summary);
    const std::uint64_t v =
        static_cast<std::uint64_t>(iters) * s->instructions_after;
    iterations += static_cast<std::uint64_t>(iters);
    visits += v;
    nonconverged += converged ? 0 : 1;
    dfa_seconds_by_machine[machine] += s->seconds;
    visits_by_machine[machine] += v;
  }
}

void PassTotals::report_times(Report& report, double speed) const {
  const double n = functions == 0 ? 1.0 : static_cast<double>(functions);
  for (const char* stem : {"cse", "dce", "alloc_linear", "alloc_coloring",
                           "thermal_dfa", "schedule"}) {
    const auto it = pass_seconds.find(stem);
    const double s = it == pass_seconds.end() ? 0.0 : it->second;
    report.metric(std::string("pass.") + stem + "_ms", 1e3 * speed * s / n,
                  "ms");
  }
  for (const auto& [machine, visits] : visits_by_machine) {
    if (visits > 0) {
      report.metric("dfa.us_per_visit." + machine,
                    1e6 * speed * dfa_seconds_by_machine.at(machine) /
                        static_cast<double>(visits),
                    "us");
    }
  }
}

}  // namespace perfbench
