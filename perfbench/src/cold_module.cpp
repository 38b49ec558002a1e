// cold_module: module text in, printed IR out, with no cache at --jobs=1.
// The thermal DFA dominates; cache and service are bypassed.
#include <memory>

#include "bench.hpp"
#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "machine/machine_config.hpp"

namespace perfbench {
namespace {

/// Modules per round and functions per module. Half the modules compile
/// on `default`, half on `large`.
constexpr std::size_t kModules = 48;
constexpr std::size_t kFunctions = 6;
/// Set-up builds the rigs and drivers of both machines. One takes about
/// 11 us, shorter than the noise of a single timing, so set-up is timed
/// in batches of kSetupsPerBatch as one region between two probes, and
/// setup_s is the median over kSetupBatches of the per-set-up mean.
constexpr int kSetupBatches = 15;
constexpr int kSetupsPerBatch = 200;

struct Machines {
  std::unique_ptr<pipeline::CompileRig> rig[2];
  std::unique_ptr<pipeline::CompilationDriver> driver[2];
};
constexpr const char* kMachineNames[2] = {"default", "large"};

Machines set_up() {
  Machines m;
  for (int i = 0; i < 2; ++i) {
    m.rig[i] = std::make_unique<pipeline::CompileRig>(
        *machine::find_machine(kMachineNames[i]));
    m.driver[i] =
        std::make_unique<pipeline::CompilationDriver>(m.rig[i]->context());
    m.driver[i]->set_jobs(1);
  }
  return m;
}

}  // namespace

Report run_cold_module(const Options& options, Tracer& tracer) {
  Report report;
  std::vector<InputModule> inputs;
  for (std::size_t j = 0; j < kModules; ++j) {
    inputs.push_back(make_module(mix64(options.seed, j), kFunctions,
                                 "m" + std::to_string(j) + "_"));
  }
  const frontend::Frontend* tir = frontend::find_frontend("tir");

  std::vector<double> setups;
  Machines m;
  SpeedTimer setup_timer(ProbeKind::kFloat);
  for (int b = 0; b < kSetupBatches; ++b) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kSetupsPerBatch; ++k) {
      m = set_up();
    }
    setups.push_back(setup_timer.finish(seconds_between(t0, Clock::now())) /
                     kSetupsPerBatch);
  }

  // The first round's results are kept for the oracle; later rounds must
  // print the same bytes.
  std::vector<pipeline::ModulePipelineResult> first(kModules);
  std::vector<std::vector<std::string>> printed(kModules);
  PassTotals totals;
  std::vector<std::vector<double>> per_module(kModules);
  SpeedTimer timer(ProbeKind::kFloat);
  std::uint64_t op = 0;
  std::size_t rounds = 0;

  const auto start = Clock::now();
  double elapsed = 0;
  while (rounds == 0 || elapsed < options.seconds) {
    for (std::size_t j = 0; j < kModules; ++j, ++op) {
      const int mi = static_cast<int>(j % 2);
      const auto t0 = Clock::now();
      std::vector<std::string> out;
      pipeline::ModulePipelineResult result;
      {
        Tracer::Scope s_op(tracer, "cold.module", op);
        frontend::ParseResult parsed;
        {
          Tracer::Scope s(tracer, "frontend.parse", op);
          parsed = tir->parse(inputs[j].text);
        }
        if (parsed.ok()) {
          {
            Tracer::Scope s(tracer, "pipeline.compile", op);
            result = m.driver[mi]->compile(*parsed.module, kSpec);
          }
          Tracer::Scope s(tracer, "ir.print", op);
          for (const auto& f : result.functions) {
            out.push_back(ir::to_string(f.run.state.func));
          }
        }
      }
      per_module[j].push_back(
          1e3 * timer.finish(seconds_between(t0, Clock::now())));
      const std::size_t id = report.add_op();
      for (const auto& f : result.functions) {
        totals.add(f.run, kMachineNames[mi]);
      }
      if (rounds == 0) {
        printed[j] = std::move(out);
        first[j] = std::move(result);
      } else if (out != printed[j]) {
        report.fail(id, "module " + std::to_string(j) +
                            " printed different IR on a repeated compile");
      }
    }
    ++rounds;
    elapsed = seconds_between(start, Clock::now());
  }
  const double rss = peak_rss_mib();

  // --- Oracle (untimed) -----------------------------------------------------
  std::vector<double> rmses;
  std::vector<double> rises;
  for (std::size_t j = 0; j < kModules; ++j) {
    const pipeline::CompileRig& rig = *m.rig[j % 2];
    std::string why =
        first[j].ok && first[j].functions.size() == kFunctions
            ? ""
            : "module " + std::to_string(j) + " did not compile";
    for (std::size_t i = 0; i < first[j].functions.size() && why.empty(); ++i) {
      ThermalCheck tc;
      why = check_compiled(rig, inputs[j].programs[i], first[j].functions[i],
                           &tc);
      if (why.empty()) {
        if (tc.converged) rmses.push_back(tc.rmse_k);
        rises.push_back(tc.output_peak_rise_k);
      }
    }
    if (!why.empty()) {
      // Every round delivered the output that failed.
      for (std::size_t op = j; op < report.attempted(); op += kModules) {
        report.fail(op, why);
      }
    }
  }

  // Throughput at each module's median latency: one round's functions
  // over the sum of those medians.
  const std::vector<double> latencies = per_op_medians(per_module);
  double round_ms = 0;
  for (double ms : latencies) round_ms += ms;
  const double functions_per_s =
      static_cast<double>(kModules * kFunctions) / (round_ms / 1e3);
  const double functions = static_cast<double>(rounds * kModules * kFunctions);

  if (!tracer.enabled()) {
    const TailLatency tail = tail_latency(all_samples(per_module));
    report.metric("setup_s", stats::median(setups), "s");
    report.metric("functions_per_s", functions_per_s, "1/s");
    report.metric("latency_p50_ms", stats::median(latencies), "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("dfa_rmse_k", pooled_rmse(rmses), "K");
    report.metric("output_peak_rise_k", interquartile_mean(rises), "K");
    report.note("latency_tail_ms is p" + fixed(tail.percentile, 2) +
                " of " + std::to_string(tail.samples) +
                " module compiles (" + std::to_string(tail.beyond) +
                " beyond)");
  } else {
    const auto self = tracer.self_seconds();
    const double n = static_cast<double>(report.attempted());
    const auto ms_per_op = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : 1e3 * timer.factor() * it->second / n;
    };
    report.metric("frontend.parse_ms", ms_per_op("frontend.parse"), "ms");
    totals.report_times(report, timer.factor());
    // Counts per round: every round compiles the same modules.
    const auto per_round = [&](std::uint64_t count) {
      return static_cast<double>(count) / static_cast<double>(rounds);
    };
    report.metric("dfa.iterations", per_round(totals.iterations), "count");
    report.metric("dfa.instruction_visits", per_round(totals.visits), "count");
    report.metric("dfa.nonconverged", per_round(totals.nonconverged), "count");
    report.metric("trace.functions_per_s", functions_per_s, "1/s");
  }
  report.note("raw (unscaled) functions_per_s " +
              fixed(functions / timer.raw_total(), 2) + ", host speed factor " +
              fixed(timer.factor(), 3));
  report.note("rounds " + std::to_string(rounds) + ", modules per round " +
              std::to_string(kModules) + ", functions per module " +
              std::to_string(kFunctions) + ", converged functions checked " +
              std::to_string(rmses.size()));
  return report;
}

}  // namespace perfbench
