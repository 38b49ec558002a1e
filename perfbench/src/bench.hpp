// Shared pieces of the perfbench harness: options, the report every
// workload fills, the span tracer, the statistics helpers, the seeded
// input generator and the oracle that checks outputs.
//
// The harness times the program from outside, around calls into its
// public layer APIs. The interpreter and ThermalReplay (src/sim) and the
// workload generators (src/workload) serve only as oracle and input
// generator; their time is never inside a timed region.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/rig.hpp"
#include "support/statistics.hpp"

namespace perfbench {

using namespace tadfa;

/// The ROADMAP's 6-pass spec every workload compiles under.
inline constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";
/// The prefix of kSpec whose last pass is the thermal DFA; the oracle
/// re-runs it to read the prediction the full compile made.
inline constexpr const char* kDfaPrefixSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
  /// Scratch directory for caches and sockets (inside the checkout).
  std::string work_dir;
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Report -----------------------------------------------------------------

struct Report {
  /// One entry per attempted operation: whether any check failed it (a
  /// failed operation counts once, however many checks condemn it).
  std::vector<char> op_failed;
  /// Metric name -> (value, unit), printed in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
  /// First few failure descriptions (printed to stderr).
  std::vector<std::string> failures;

  /// Starts one operation; returns its index.
  std::size_t add_op() {
    op_failed.push_back(0);
    return op_failed.size() - 1;
  }
  /// Marks operation `op` failed and remembers why.
  void fail(std::size_t op, const std::string& why);
  /// Marks every operation failed (a reference the checks need is wrong).
  void fail_all(const std::string& why);
  std::uint64_t attempted() const { return op_failed.size(); }
  std::uint64_t failed() const;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

// --- Tracing ------------------------------------------------------------------

/// In-memory span recorder. Spans are recorded by the harness around each
/// call into a layer; the spans of one operation share `op`. Disabled
/// tracers record nothing and cost one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; -1 when disabled.
  int begin(const std::string& name, std::uint64_t op);
  void end(int id);
  /// Records an already-measured interval under `parent` (by default the
  /// innermost open span); returns its id, -1 when disabled.
  static constexpr int kOpenParent = -2;
  int add(const std::string& name, std::uint64_t op, double start_s,
          double end_s, int parent = kOpenParent);
  /// Seconds since the tracer was created (the span time base).
  double now() const;

  /// Self time per span name in seconds: each span's duration minus the
  /// part of it its children cover.
  std::map<std::string, double> self_seconds() const;
  /// Writes one JSON object per span, one per line.
  bool write(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, std::uint64_t op)
        : t_(t), id_(t.begin(name, op)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Statistics ---------------------------------------------------------------

struct TailLatency {
  double value = 0;
  double percentile = 0;
  /// Samples strictly above `value`.
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

/// The highest percentile with at least ten samples strictly beyond it:
/// the 11th largest sample (lower when ties would leave fewer than ten
/// beyond), reported with its percentile 100 * (n - beyond) / n. With
/// ten samples or fewer, the maximum at percentile 100.
TailLatency tail_latency(const std::vector<double>& samples);

// --- Host speed ---------------------------------------------------------------
//
// The host's speed swings by up to 2x for tens of seconds at a time as
// co-tenants come and go (rounds of identical work took 2.0-3.3 s within
// one 60 s run), which no run length averages away, and it does not swing
// alike for all code: in one hour floating-point code ran at 0.4x of its
// best speed while parsing and file work kept its pace. Every timed region
// is therefore bracketed by a fixed probe shaped like the workload's own
// work, and times are reported scaled to a host on which that probe takes
// kProbeReferenceS: raw * kProbeReferenceS / probe. Probes are harness
// code; the program never runs inside them. Raw figures are printed as
// notes.

/// What a probe exercises.
enum class ProbeKind {
  /// Explicit stencil steps over a 16x16 grid with an exp() per node: the
  /// thermal DFA's inner loop (cold compiles).
  kFloat,
  /// Tokenizing and hashing IR-like text into a map: parsing, printing and
  /// cache restores (edits, the service).
  kText,
};

/// Seconds either probe takes on the reference host (its full speed).
inline constexpr double kProbeReferenceS = 1.0e-3;
/// Probes per reading around a set-up of about a second.
inline constexpr int kSetupProbes = 7;

/// Runs the probe once; returns its wall time in seconds.
double probe_seconds(ProbeKind kind);
/// Runs the probe once; returns the CPU time this thread spent on it,
/// which leaves out time the thread waited for its CPU or had it stolen.
double probe_cpu_seconds(ProbeKind kind);

double thread_cpu_seconds();

/// Times a sequence of operations against the probe: each operation's raw
/// time is scaled by the mean of the probes just before and just after it.
/// Each probe reading is the median of `repeats` probes; a long operation
/// timed once (a set-up) takes several, so one disturbed probe does not
/// scale it.
class SpeedTimer {
 public:
  explicit SpeedTimer(ProbeKind kind, int repeats = 1)
      : kind_(kind), repeats_(repeats), probe_(read()) {}

  /// Probes afresh; call before an operation when other work ran since
  /// the last finish().
  void start() { probe_ = read(); }

  /// Call right after an operation that took `raw` seconds; probes again
  /// and returns the operation's normalized seconds.
  double finish(double raw);

  double raw_total() const { return raw_; }
  double normalized_total() const { return normalized_; }
  /// normalized_total / raw_total; scales the raw layer times of the run.
  double factor() const { return raw_ > 0 ? normalized_ / raw_ : 1.0; }

 private:
  double read() const;

  ProbeKind kind_;
  int repeats_;
  double probe_;
  double raw_ = 0;
  double normalized_ = 0;
};

/// The median of each operation's samples; `samples[i]` holds every time
/// measured for distinct operation i (one per round). The p50 and the
/// throughput are taken over these, so one operation slowed by a burst of
/// host contention the probe missed cannot move them.
std::vector<double> per_op_medians(const std::vector<std::vector<double>>& samples);
/// Every sample of every operation in one list (the tail is taken over
/// these, so a stall that hits a few repeats of an operation shows).
std::vector<double> all_samples(const std::vector<std::vector<double>>& samples);

/// Steal time of one CPU so far (its `steal` field in /proc/stat), in
/// seconds: time the hypervisor ran something else while this vCPU had
/// work. 0 when it cannot be read.
double cpu_steal_seconds(int cpu);

/// One RMSE over every register of several functions, from their
/// per-function RMSEs (all functions of one machine have the same register
/// count): the square root of the mean squared RMSE.
double pooled_rmse(const std::vector<double>& rmses);
/// `v` with `digits` decimals, for notes.
std::string fixed(double v, int digits);
/// Mean of the middle half of `xs` (a quarter dropped at each end); 0 when
/// `xs` is empty. A few long-running functions heat the file far more than
/// the rest, and with about a hundred functions per run they would move a
/// plain mean with the seed.
double interquartile_mean(std::vector<double> xs);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

// --- Inputs -------------------------------------------------------------------

/// One generated function with what the oracle needs to run it.
struct Program {
  std::string name;
  ir::Function func{""};
  std::vector<std::int64_t> args;
  std::function<void(std::vector<std::int64_t>&)> init_memory;
  /// Hand-written expected result (kernels: Kernel::expected_result;
  /// texpr programs: computed by the harness in C++).
  std::optional<std::int64_t> expected;
};

struct InputModule {
  /// Same order as `programs`; carries the `ref` edges.
  ir::Module module;
  std::vector<Program> programs;
  /// Canonical .tir text of `module` (what the frontend parses).
  std::string text;
};

/// A stratified mixed module: every third function is a seeded random
/// program, the rest cycle through the ten kernel families with seeded
/// parameters; every fourth function references a seeded earlier one.
/// Bodies are unique by ir::fingerprint.
InputModule make_module(std::uint64_t seed, std::size_t functions,
                        const std::string& name_prefix);

/// A texpr source of one function, with its expected result for `arg`:
/// one of three loop shapes (shape % 3), its constants drawn from `seed`.
struct TexprProgram {
  std::string name;
  std::string source;
  std::int64_t arg = 0;
  std::int64_t expected = 0;
};
TexprProgram make_texpr(std::uint64_t seed, std::size_t shape,
                        const std::string& name);

std::uint64_t mix64(std::uint64_t seed, std::uint64_t index);

// --- Oracle -------------------------------------------------------------------

/// Runs `func` under the interpreter with the program's arguments and
/// memory; nullopt when it traps.
std::optional<std::int64_t> interpret(const ir::Function& func,
                                      const Program& program,
                                      const machine::TimingModel& timing);

/// Checks one compiled output against its input program: equal
/// interpreter results and, when the program has one, the hand-written
/// expected result. Returns "" on success, else what differed.
std::string check_semantics(const ir::Function& output, const Program& input,
                            const machine::TimingModel& timing);

/// Thermal accuracy of one compiled function, from the oracle's replay.
struct ThermalCheck {
  bool converged = false;
  int iterations = 0;
  /// RMSE (K) between DFA exit register temperatures and ThermalReplay
  /// of an interpreter trace of the same code under the same assignment.
  double rmse_k = 0;
  /// Peak register temperature rise over the substrate (K) of the final
  /// compiled output under replay.
  double output_peak_rise_k = 0;
  std::string error;
};

/// Re-runs the DFA prefix of the spec on `input` (the compile is pure,
/// so this is the prediction the full compile made; the pass summaries
/// must agree) and replays both the DFA's code and the final output.
ThermalCheck check_thermal(const pipeline::CompileRig& rig,
                           const Program& input,
                           const pipeline::FunctionCompileResult& compiled);

/// RMSE (K) a converged function may not exceed. The DFA folds a block's
/// executions into one frequency-scaled window with a static trip-count
/// guess, so its exit map departs from a cycle-accurate replay of one run
/// by up to about 1 K on these inputs (README: accuracy); further off
/// than this and the prediction is wrong, not imprecise.
inline constexpr double kRmseToleranceK = 1.5;

/// Every check of one compiled function: check_semantics, then
/// check_thermal and the RMSE tolerance. Returns "" on success; `thermal`
/// holds the thermal figures when it does.
std::string check_compiled(const pipeline::CompileRig& rig,
                           const Program& input,
                           const pipeline::FunctionCompileResult& compiled,
                           ThermalCheck* thermal);

/// Names whose closure includes `name` over `module`'s ref edges,
/// computed by the harness itself (not by pipeline::DependencyGraph):
/// `name` plus everything that transitively references it.
std::vector<std::string> dependency_closure(const ir::Module& module,
                                            const std::string& name);

/// Compares the functions an edit-aware compile recompiled against the
/// edited function's dependency closure; "" when they agree.
std::string check_recompiled(const ir::Module& module, const std::string& edited,
                             const std::set<std::string>& recompiled);

/// One of the pass statistics of a compiled function, by pass name
/// prefix ("thermal-dfa", "alloc=linear", ...); nullptr when absent.
const pipeline::PassRunStats* pass_stats(
    const pipeline::PipelineRunResult& run, const std::string& prefix);

/// Parses "N iters, converged|NOT converged" from a thermal-dfa summary.
std::pair<int, bool> dfa_iterations(const std::string& summary);

// --- Per-layer accounting -------------------------------------------------------

/// Pass and DFA counters summed over compiled (not restored) functions,
/// read from the statistics the pipeline already reports.
struct PassTotals {
  std::uint64_t functions = 0;
  /// Seconds per pass, keyed by metric stem ("cse", "thermal_dfa", ...).
  std::map<std::string, double> pass_seconds;
  std::uint64_t iterations = 0;
  /// DFA iterations x instructions analyzed: every iteration visits every
  /// instruction of the function once.
  std::uint64_t visits = 0;
  std::uint64_t nonconverged = 0;
  std::map<std::string, double> dfa_seconds_by_machine;
  std::map<std::string, std::uint64_t> visits_by_machine;

  void add(const pipeline::PipelineRunResult& run, const std::string& machine);
  /// Adds the seconds of each pass in `stats` to pass_seconds (and
  /// nothing to the counters). `functions` is the caller's to count.
  void add_pass_seconds(const std::vector<pipeline::PassRunStats>& stats);
  /// Emits pass.*_ms (per compiled function) and dfa.us_per_visit.<machine>
  /// for each machine with DFA visits, scaled by `speed`
  /// (SpeedTimer::factor); counts are emitted by the caller, which knows
  /// their unit of work.
  void report_times(Report& report, double speed) const;
};

// --- Workloads ------------------------------------------------------------------

Report run_cold_module(const Options& options, Tracer& tracer);
Report run_warm_edit(const Options& options, Tracer& tracer);
Report run_service_routed(const Options& options, Tracer& tracer);

/// Self-test of the harness (checks that known-bad outputs are reported
/// as failures, and the statistics helpers against hand-computed
/// values). Returns the number of failed checks.
int run_self_test();

}  // namespace perfbench
