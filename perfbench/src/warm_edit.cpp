// warm_edit: the interactive loop. Set-up compiles the module once into a
// ResultCache; each operation edits one function, reparses the module
// text and recompiles edit-aware, so most functions are restored from the
// cache and only the edited function and its dependents recompile.
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>

#include "bench.hpp"
#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "machine/machine_config.hpp"
#include "pipeline/result_cache.hpp"

namespace perfbench {
namespace {

/// Sized so the restores of the unchanged functions outweigh the DFA of
/// the few that recompile.
constexpr std::size_t kFunctions = 120;
/// Edits per round: every function once, so the sites do not depend on
/// the seed and the tail reflects the several functions with the most
/// dependents rather than whichever one or two a draw of sites included.
constexpr std::size_t kEditsPerRound = kFunctions;
constexpr int kSetups = 7;

struct Session {
  std::unique_ptr<pipeline::ResultCache> cache;
  std::unique_ptr<pipeline::CompilationDriver> driver;
  pipeline::ModulePipelineResult initial;
};

Session set_up(const pipeline::CompileRig& rig, const std::string& cache_dir,
               const std::string& text) {
  std::filesystem::remove_all(cache_dir);
  Session s;
  s.cache = std::make_unique<pipeline::ResultCache>(cache_dir);
  s.driver = std::make_unique<pipeline::CompilationDriver>(rig.context());
  s.driver->set_jobs(1);
  s.driver->set_result_cache(s.cache.get());
  s.driver->set_edit_aware(true);
  auto parsed = frontend::find_frontend("tir")->parse(text);
  if (parsed.ok()) {
    s.initial = s.driver->compile(*parsed.module, kSpec);
  }
  return s;
}

/// The module with function `index` edited: a fresh constant lands at the
/// top of its entry block, so its fingerprint changes with every `tag`.
std::string edited_text(const InputModule& base, std::size_t index,
                        std::uint64_t tag, ir::Function* edited) {
  ir::Module m;
  for (std::size_t i = 0; i < base.module.size(); ++i) {
    ir::Function f = base.module.functions()[i];
    if (i == index) {
      const ir::Reg r = f.new_reg();
      f.block(f.entry()).insert(
          0, ir::Instruction(ir::Opcode::kConst, r,
                             {ir::Operand::imm(static_cast<std::int64_t>(tag))}));
      *edited = f;
    }
    m.add_function(std::move(f));
  }
  for (const auto& ref : base.module.references()) {
    m.add_reference(ref.from, ref.to);
  }
  return ir::to_string(m);
}

}  // namespace

Report run_warm_edit(const Options& options, Tracer& tracer) {
  Report report;
  const InputModule base = make_module(options.seed, kFunctions, "");
  const pipeline::CompileRig rig(*machine::find_machine("default"));
  const frontend::Frontend* tir = frontend::find_frontend("tir");
  const std::string cache_root = options.work_dir + "/warm_edit";

  std::vector<double> setups;
  Session session;
  // Set-up is a cold compile of the whole input: DFA work.
  SpeedTimer setup_timer(ProbeKind::kFloat, kSetupProbes);
  for (int k = 0; k < kSetups; ++k) {
    session = {};  // closes the previous cache before its directory goes
    setup_timer.start();
    const auto t0 = Clock::now();
    session = set_up(rig, cache_root + "/setup" + std::to_string(k), base.text);
    setups.push_back(setup_timer.finish(seconds_between(t0, Clock::now())));
  }
  if (!session.initial.ok) {
    std::cerr << "set-up compile failed: " << session.initial.error << "\n";
    return report;
  }
  // The set-up compile is cold (empty cache): its printed outputs are the
  // reference every warm edit must reproduce for unchanged functions.
  std::vector<std::string> reference;
  for (const auto& f : session.initial.functions) {
    reference.push_back(ir::to_string(f.run.state.func));
  }


  pipeline::CompilationDriver cold_driver(rig.context());
  cold_driver.set_jobs(1);
  std::vector<std::optional<ir::Function>> first_edited(kEditsPerRound);
  std::vector<std::optional<pipeline::FunctionCompileResult>> first_output(
      kEditsPerRound);

  std::vector<std::vector<double>> per_site(kEditsPerRound);
  SpeedTimer timer(ProbeKind::kText);
  double parse_s = 0;
  double restore_s = 0;
  double recompile_s = 0;
  std::uint64_t restored = 0;
  std::uint64_t recompiled = 0;
  PassTotals totals;
  const pipeline::ResultCacheStats stats0 = session.cache->stats();
  std::uint64_t op = 0;
  std::size_t rounds = 0;

  while (rounds == 0 || timer.raw_total() < options.seconds) {
    for (std::size_t site = 0; site < kEditsPerRound; ++site, ++op) {
      ir::Function edited{""};
      const std::string text = edited_text(base, site, op + 1, &edited);

      pipeline::ModulePipelineResult result;
      std::vector<std::string> out;
      timer.start();
      const auto t0 = Clock::now();
      double compile_s = 0;
      {
        Tracer::Scope s_op(tracer, "warm.edit", op);
        frontend::ParseResult parsed;
        const auto p0 = Clock::now();
        {
          Tracer::Scope s(tracer, "frontend.parse", op);
          parsed = tir->parse(text);
        }
        const auto p1 = Clock::now();
        parse_s += seconds_between(p0, p1);
        if (parsed.ok()) {
          {
            Tracer::Scope s(tracer, "pipeline.compile_edit_aware", op);
            result = session.driver->compile(*parsed.module, kSpec);
          }
          compile_s = seconds_between(p1, Clock::now());
          Tracer::Scope s(tracer, "ir.print", op);
          for (const auto& f : result.functions) {
            out.push_back(ir::to_string(f.run.state.func));
          }
        }
      }
      per_site[site].push_back(1e3 *
                            timer.finish(seconds_between(t0, Clock::now())));
      const std::size_t id = report.add_op();

      // --- Per-edit checks (untimed) ---------------------------------------
      std::set<std::string> got;
      double recompile_here = 0;
      for (const auto& f : result.functions) {
        if (!f.from_cache) {
          got.insert(f.name);
          recompile_here += f.run.total_seconds;
          totals.add(f.run, "default");
        }
      }
      restored += result.functions.size() - got.size();
      recompiled += got.size();
      recompile_s += recompile_here;
      restore_s += compile_s - recompile_here;

      std::string why =
          result.ok && out.size() == kFunctions
              ? check_recompiled(base.module, edited.name(), got)
              : "edit-aware compile failed: " + result.error;
      if (why.empty()) {
        ir::Module alone;
        alone.add_function(edited);
        const auto cold = cold_driver.compile(alone, kSpec);
        const std::string cold_text =
            cold.ok ? ir::to_string(cold.functions[0].run.state.func) : "";
        for (std::size_t i = 0; i < kFunctions && why.empty(); ++i) {
          const std::string& want = i == site ? cold_text : reference[i];
          if (out[i] != want) {
            why = "warm output of " + result.functions[i].name +
                  " differs from its cold compile";
          }
        }
        if (why.empty() && rounds == 0) {
          first_edited[site] = edited;
          first_output[site].emplace(std::move(result.functions[site]));
        }
      }
      if (!why.empty()) {
        report.fail(id, why);
      }
    }
    ++rounds;
  }
  const pipeline::ResultCacheStats stats1 = session.cache->stats();
  const double rss = peak_rss_mib();
  const double cache_kib_per_entry =
      static_cast<double>(session.cache->total_bytes()) / 1024.0 /
      static_cast<double>(std::max<std::size_t>(1, session.cache->entry_count()));

  // --- Oracle (untimed) -----------------------------------------------------
  std::vector<double> rmses;
  std::vector<double> rises;
  for (std::size_t i = 0; i < kFunctions; ++i) {
    ThermalCheck tc;
    const std::string why = check_compiled(rig, base.programs[i],
                                           session.initial.functions[i], &tc);
    if (!why.empty()) {
      // An unchanged function's output is delivered by every edit.
      report.fail_all("set-up output: " + why);
      continue;
    }
    if (tc.converged) rmses.push_back(tc.rmse_k);
    rises.push_back(tc.output_peak_rise_k);
  }
  for (std::size_t k = 0; k < kEditsPerRound; ++k) {
    if (!first_output[k]) {
      continue;
    }
    Program edited_input = base.programs[k];
    edited_input.func = *first_edited[k];
    const std::string why = check_semantics(
        first_output[k]->run.state.func, edited_input, rig.context().timing);
    if (!why.empty()) {
      // Every round edited this function the same way.
      for (std::size_t op = k; op < report.attempted(); op += kEditsPerRound) {
        report.fail(op, "edited output: " + why);
      }
    }
  }

  const double edits = static_cast<double>(report.attempted());

  // Every edit delivers the whole module; throughput at each site's
  // median latency is one round's functions over the sum of the medians.
  const std::vector<double> latencies = per_op_medians(per_site);
  double round_ms = 0;
  for (double ms : latencies) round_ms += ms;
  const double functions_per_s =
      static_cast<double>(kEditsPerRound * kFunctions) / (round_ms / 1e3);
  const double functions = static_cast<double>(report.attempted() * kFunctions);
  const double speed = timer.factor();

  if (!tracer.enabled()) {
    const TailLatency tail = tail_latency(all_samples(per_site));
    report.metric("setup_s", stats::median(setups), "s");
    report.metric("functions_per_s", functions_per_s, "1/s");
    report.metric("latency_p50_ms", stats::median(latencies), "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("dfa_rmse_k", pooled_rmse(rmses), "K");
    report.metric("output_peak_rise_k", interquartile_mean(rises), "K");
    report.note("latency_tail_ms is p" + fixed(tail.percentile, 2) +
                " of " + std::to_string(tail.samples) + " edits (" +
                std::to_string(tail.beyond) + " beyond)");
  } else {
    const double hits = static_cast<double>(stats1.hits - stats0.hits);
    const double misses = static_cast<double>(stats1.misses - stats0.misses);
    report.metric("frontend.parse_ms", 1e3 * speed * parse_s / edits, "ms");
    totals.report_times(report, speed);
    report.metric("dfa.iterations",
                  static_cast<double>(totals.iterations) / edits,
                  "count");
    report.metric("dfa.instruction_visits",
                  static_cast<double>(totals.visits) / edits, "count");
    report.metric("dfa.nonconverged",
                  static_cast<double>(totals.nonconverged) / edits,
                  "count");
    report.metric("cache.restore_ms",
                  1e3 * speed * restore_s / static_cast<double>(std::max<std::uint64_t>(1, restored)),
                  "ms");
    report.metric("cache.recompile_ms",
                  1e3 * speed * recompile_s / static_cast<double>(std::max<std::uint64_t>(1, recompiled)),
                  "ms");
    report.metric("cache.hits", hits / edits, "count");
    report.metric("cache.misses", misses / edits, "count");
    report.metric("cache.stores",
                  static_cast<double>(stats1.stores - stats0.stores) / edits,
                  "count");
    report.metric("cache.hit_ratio", hits / std::max(1.0, hits + misses),
                  "ratio");
    report.metric("cache.kb_per_function", cache_kib_per_entry, "KiB");
    report.metric("graph.recompiled_per_edit",
                  static_cast<double>(recompiled) / edits, "count");
    report.metric("trace.functions_per_s", functions_per_s, "1/s");
  }
  report.note("raw (unscaled) functions_per_s " +
              fixed(functions / timer.raw_total(), 2) + ", host speed factor " +
              fixed(speed, 3));
  report.note("rounds " + std::to_string(rounds) + " of " +
              std::to_string(kEditsPerRound) + " edits over " +
              std::to_string(kFunctions) + " functions; restored " +
              std::to_string(restored) + ", recompiled " +
              std::to_string(recompiled));
  session = {};
  std::filesystem::remove_all(cache_root);
  return report;
}

}  // namespace perfbench
