// service_routed: one client process compiles through a router to two
// servers over Unix sockets. Every function was compiled during set-up,
// so each request is served from the shards' caches: the time goes to
// protocol, transport, router split/merge, server dispatch and restore,
// and the DFA is bypassed. Clients, router and servers share one vCPU.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "bench.hpp"
#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "machine/machine_config.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 7;
/// Each format's requests of a round carry 180 functions, so every tir
/// function travels twice per round and every texpr function four times.
constexpr std::size_t kTirPool = 90;
constexpr std::size_t kTexprPool = 45;
/// Requests per round; every client cycles through the same round.
constexpr std::size_t kRequestsPerRound = 120;
/// Closed-loop client connections (one thread each).
constexpr std::size_t kClients = 2;
/// The main thread samples the host's speed and the vCPU's steal time
/// this often while the clients run (a probe takes about 1 ms).
constexpr auto kSampleEvery = std::chrono::milliseconds(100);
/// Requests are scaled by the samples of the window they finished in.
constexpr double kWindowSeconds = 0.5;

/// Confines this thread, and every thread it starts from now on, to the
/// CPU it runs on, and returns that CPU (-1 when it cannot tell). The
/// client, the router and both servers then share one vCPU: a request
/// never waits on another vCPU the hypervisor has descheduled, and the
/// time stolen from the service is that one vCPU's steal time.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
  return cpu;
}

/// One sample of the measured phase: when it was taken (seconds since the
/// start), the probe's CPU time (the vCPU's speed while it runs) and the
/// pinned vCPU's steal time so far.
struct Sample {
  double t = 0;
  double probe_cpu = 0;
  double steal = 0;
};

/// Per window: the factor that scales a request's wall time to the
/// reference host, (wall - steal) / wall x reference probe / probe. Only
/// stolen time is taken out: time the service spends blocked or idle on
/// its own vCPU (a backoff, a timeout, a queue) stays in its latency.
std::vector<double> window_scale(const std::vector<Sample>& samples,
                                 std::size_t windows) {
  std::vector<double> wall(windows, 0), steal(windows, 0), probe(windows, 0);
  std::vector<int> probes(windows, 0);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const auto w = static_cast<std::size_t>(samples[i].t / kWindowSeconds);
    if (w < windows) {
      wall[w] += samples[i].t - samples[i - 1].t;
      steal[w] += samples[i].steal - samples[i - 1].steal;
      probe[w] += samples[i].probe_cpu;
      ++probes[w];
    }
  }
  std::vector<double> scale(windows, 1.0);
  for (std::size_t w = 0; w < windows; ++w) {
    if (probes[w] > 0 && wall[w] > 0) {
      const double share = std::clamp(1.0 - steal[w] / wall[w], 0.0, 1.0);
      scale[w] = share * kProbeReferenceS / (probe[w] / probes[w]);
    }
  }
  return scale;
}

struct PoolFunction {
  std::string name;
  /// Source text in its own format (one function).
  std::string text;
  bool texpr = false;
};

struct Request {
  service::CompileRequest request;
  std::vector<std::string> names;
};

/// Two servers and the router in front of them. Members are destroyed in
/// reverse order, so the router shuts down before the servers it forwards to.
struct Fleet {
  std::unique_ptr<service::CompileServer> servers[2];
  std::unique_ptr<service::Router> router;
  std::string router_socket;
  std::string error;
};

/// Sends one request and waits for its response; nullopt on I/O failure.
std::optional<service::CompileResponse> round_trip(
    int fd, const service::CompileRequest& request) {
  std::string error;
  if (!service::write_request(fd, request, &error)) {
    return std::nullopt;
  }
  return service::read_response(fd, &error);
}

std::unique_ptr<Fleet> set_up(const pipeline::CompileRig& rig,
                              const std::string& dir,
                              const std::vector<Request>& warm) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto fleet = std::make_unique<Fleet>();
  service::RouterConfig rc;
  for (int i = 0; i < 2; ++i) {
    service::ServerConfig sc;
    sc.socket_path = dir + "/s" + std::to_string(i) + ".sock";
    sc.cache_dir = dir + "/cache" + std::to_string(i);
    sc.jobs = 1;
    sc.default_spec = kSpec;
    fleet->servers[i] =
        std::make_unique<service::CompileServer>(rig.context(), sc);
    if (!fleet->servers[i]->start()) {
      fleet->error = "server start: " + fleet->servers[i]->error();
      return fleet;
    }
    service::ShardAddress a;
    a.unix_path = sc.socket_path;
    rc.shards.push_back(a);
  }
  rc.socket_path = dir + "/router.sock";
  fleet->router_socket = rc.socket_path;
  fleet->router = std::make_unique<service::Router>(rc);
  if (!fleet->router->start()) {
    fleet->error = "router start: " + fleet->router->error();
    return fleet;
  }
  std::string error;
  const int fd = service::connect_unix_retry(rc.socket_path, 5.0, &error);
  if (fd < 0) {
    fleet->error = "connect: " + error;
    return fleet;
  }
  for (const Request& r : warm) {
    const auto response = round_trip(fd, r.request);
    if (!response || !response->ok) {
      fleet->error = "warm-up request failed";
      break;
    }
  }
  ::close(fd);
  return fleet;
}

/// Lets the main thread probe the vCPU while no request is in flight: a
/// probe that shares the vCPU with the service's threads reads their
/// preemptions and cache misses, not the host's speed. Clients check in
/// between requests, so no request's timed region contains a pause.
class Gate {
 public:
  explicit Gate(std::size_t clients) : running_(clients) {}

  /// Client side, between requests: waits while the gate is closed.
  void pass() {
    std::unique_lock<std::mutex> lock(m_);
    if (!closed_) {
      return;
    }
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !closed_; });
    --parked_;
  }
  /// Client side, when its loop ends.
  void leave() {
    std::lock_guard<std::mutex> lock(m_);
    --running_;
    cv_.notify_all();
  }
  /// Main side: closes the gate and waits until every running client is
  /// parked; false once no client runs.
  bool close() {
    std::unique_lock<std::mutex> lock(m_);
    closed_ = true;
    cv_.wait(lock, [this] { return parked_ == running_; });
    return running_ > 0;
  }
  void open() {
    std::lock_guard<std::mutex> lock(m_);
    closed_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::size_t parked_ = 0;
  std::size_t running_;
};

/// What one client thread measured.
struct ClientLog {
  std::vector<double> latency_ms;
  /// Completion time of each request, seconds since the measured start.
  std::vector<double> done_s;
  /// Which request of the round each sample measured.
  std::vector<std::uint32_t> request;
  double encode_s = 0;
  double decode_s = 0;
  double wire_s = 0;
  double server_s = 0;
  double parse_s = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t functions = 0;
  std::uint64_t requests = 0;
  std::uint64_t not_from_cache = 0;
  /// Pass seconds of the responses in which the server compiled at least
  /// one function (see client_loop).
  PassTotals passes;
  std::vector<std::string> failures;
  /// Per sample: whether its response failed a check.
  std::vector<char> sample_failed;
  /// First-round printed outputs per request index, for the oracle.
  std::vector<std::vector<std::string>> first;
  struct SpanRec {
    const char* name;
    std::uint64_t op;
    double start;
    double end;
    bool child;
  };
  std::vector<SpanRec> spans;
};

void client_loop(const std::string& socket, const std::vector<Request>& round,
                 std::size_t offset, double seconds, Clock::time_point start,
                 Gate& gate, Tracer& tracer, ClientLog& log) {
  std::string error;
  const int fd = service::connect_unix_retry(socket, 5.0, &error);
  if (fd < 0) {
    log.failures.push_back("client connect: " + error);
    return;
  }
  log.first.resize(round.size());
  const bool traced = tracer.enabled();
  for (std::size_t rounds = 0;
       rounds == 0 || seconds_between(start, Clock::now()) < seconds;
       ++rounds) {
    for (std::size_t k = 0; k < round.size(); ++k) {
      const std::size_t r = (k + offset) % round.size();
      const Request& req = round[r];
      gate.pass();
      const std::uint64_t op = log.requests;
      const double s0 = traced ? tracer.now() : 0;
      const auto t0 = Clock::now();
      ByteWriter w;
      req.request.serialize(w);
      const auto t1 = Clock::now();
      std::string payload;
      bool io_ok = service::write_frame(fd, w.data(), &error) &&
                   service::read_frame(fd, &payload, &error) ==
                       service::FrameStatus::kOk;
      const auto t2 = Clock::now();
      std::optional<service::CompileResponse> response;
      if (io_ok) {
        ByteReader reader(payload);
        response = service::CompileResponse::deserialize(reader);
      }
      const auto t3 = Clock::now();
      const double latency = seconds_between(t0, t3);
      log.latency_ms.push_back(1e3 * latency);
      log.done_s.push_back(seconds_between(start, t3));
      log.request.push_back(static_cast<std::uint32_t>(r));
      log.encode_s += seconds_between(t0, t1);
      log.wire_s += seconds_between(t1, t2);
      log.decode_s += seconds_between(t2, t3);
      log.request_bytes += w.data().size();
      log.response_bytes += payload.size();
      ++log.requests;
      if (traced) {
        const double e1 = s0 + seconds_between(t0, t1);
        const double e2 = s0 + seconds_between(t0, t2);
        const double e3 = s0 + latency;
        log.spans.push_back({"service.request", op, s0, e3, false});
        log.spans.push_back({"protocol.encode", op, s0, e1, true});
        log.spans.push_back({"service.round_trip", op, e1, e2, true});
        log.spans.push_back({"protocol.decode", op, e2, e3, true});
      }

      // --- Checks (untimed) ------------------------------------------------
      std::string why;
      std::vector<std::string> printed;
      if (!response) {
        why = "request " + std::to_string(r) + ": no response: " + error;
      } else if (!response->ok ||
                 response->functions.size() != req.names.size()) {
        why = "request " + std::to_string(r) + " failed: " + response->error;
      } else {
        log.server_s += response->server_seconds;
        std::uint64_t compiled = 0;
        for (std::size_t i = 0; i < req.names.size(); ++i) {
          const auto& f = response->functions[i];
          if (f.name != req.names[i]) {
            why = "request " + std::to_string(r) + ": function order changed";
          }
          compiled += f.from_cache ? 0 : 1;
          printed.push_back(f.printed);
        }
        // The response's pass stats are merged over all its functions, and
        // a restored function carries the stored stats of the compile that
        // filled the cache. So only a response in which the server compiled
        // something adds pass time (all of its merged time: the restored
        // members' stored time is counted too, an overestimate).
        if (compiled > 0) {
          log.passes.add_pass_seconds(response->pass_stats);
          log.passes.functions += compiled;
        }
        log.not_from_cache += compiled;
        log.functions += req.names.size();
        if (rounds == 0) {
          log.first[r] = printed;
        } else if (printed != log.first[r]) {
          why = "request " + std::to_string(r) +
                ": output differs from its first response";
        }
      }
      log.sample_failed.push_back(why.empty() ? 0 : 1);
      if (!why.empty() && log.failures.size() < 5) {
        log.failures.push_back(why);
      }
      if (traced) {
        // Parse cost of this request's text, paid once by the router and
        // once more (as re-printed tir) by the shard.
        const frontend::Frontend* fe = frontend::find_frontend(
            req.request.frontend.empty() ? "tir" : req.request.frontend);
        const double p0 = tracer.now();
        const auto parsed = fe->parse(req.request.module_text);
        const double p1 = tracer.now();
        log.parse_s += p1 - p0;
        log.spans.push_back({"frontend.parse", op, p0, p1, false});
        (void)parsed;
      }
    }
  }
  ::close(fd);
}

}  // namespace

Report run_service_routed(const Options& options, Tracer& tracer) {
  Report report;
  const int cpu = pin_to_current_cpu();
  const auto steal_now = [cpu] { return cpu < 0 ? 0.0 : cpu_steal_seconds(cpu); };
  const pipeline::CompileRig rig(*machine::find_machine("default"));

  // --- Inputs ----------------------------------------------------------------
  const InputModule tir_pool = make_module(options.seed, kTirPool, "");
  std::vector<TexprProgram> texpr_pool;
  for (std::size_t i = 0; i < kTexprPool; ++i) {
    texpr_pool.push_back(make_texpr(mix64(options.seed ^ 0x74657870ull, i), i,
                                    "tx" + std::to_string(i)));
  }
  std::vector<PoolFunction> pool;
  for (const auto& p : tir_pool.programs) {
    pool.push_back({p.name, ir::to_string(p.func), false});
  }
  for (const auto& t : texpr_pool) {
    pool.push_back({t.name, t.source, true});
  }
  const auto make_request = [&](const std::vector<std::size_t>& members) {
    Request r;
    r.request.spec = kSpec;
    r.request.frontend = pool[members[0]].texpr ? "texpr" : "tir";
    for (std::size_t m : members) {
      r.request.module_text += pool[m].text;
      r.names.push_back(pool[m].name);
    }
    return r;
  };
  // Warm-up: every pool function once, in groups of six of one format.
  std::vector<Request> warm;
  for (std::size_t i = 0; i < pool.size(); i += 6) {
    std::vector<std::size_t> members;
    for (std::size_t j = i; j < std::min(pool.size(), i + 6); ++j) {
      if (pool[j].texpr == pool[i].texpr) members.push_back(j);
    }
    warm.push_back(make_request(members));
  }
  // The measured round: 2-4 functions of one format per request, every
  // (format, size) pair equally often. Each format's requests take
  // consecutive entries of one seeded permutation of its pool, cyclically,
  // so every pool function is in the same number of requests per round:
  // the seed picks which functions travel together, not how often each
  // travels. (Four consecutive entries of a permutation are distinct.)
  std::vector<std::size_t> order[2];
  std::size_t cursor[2] = {0, 0};
  for (std::size_t f = 0; f < 2; ++f) {
    order[f].resize(f == 1 ? kTexprPool : kTirPool);
    for (std::size_t i = 0; i < order[f].size(); ++i) order[f][i] = i;
    for (std::size_t i = order[f].size() - 1; i > 0; --i) {
      std::swap(order[f][i],
                order[f][mix64(options.seed ^ 0x72657173ull, 1000 * f + i) %
                         (i + 1)]);
    }
  }
  std::vector<Request> round;
  for (std::size_t r = 0; r < kRequestsPerRound; ++r) {
    const std::size_t f = r % 2;
    const std::size_t base = f == 1 ? kTirPool : 0;
    const std::size_t count = 2 + (r / 2) % 3;
    std::vector<std::size_t> members;
    for (std::size_t j = 0; j < count; ++j) {
      members.push_back(base + order[f][cursor[f]++ % order[f].size()]);
    }
    round.push_back(make_request(members));
  }

  // --- Set-up ----------------------------------------------------------------
  const std::string root = options.work_dir + "/svc";
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  // Set-up is a cold compile of the whole input: DFA work.
  SpeedTimer setup_timer(ProbeKind::kFloat, kSetupProbes);
  for (int k = 0; k < kSetups; ++k) {
    fleet.reset();
    setup_timer.start();
    const double steal0 = steal_now();
    const auto t0 = Clock::now();
    fleet = set_up(rig, root + "/" + std::to_string(k), warm);
    const double wall = seconds_between(t0, Clock::now());
    // Time stolen from the pinned vCPU is not the service's.
    setups.push_back(setup_timer.finish(
        std::max(0.0, wall - (steal_now() - steal0))));
    if (!fleet->error.empty()) {
      std::cerr << "set-up: " << fleet->error << "\n";
      return report;
    }
  }
  pipeline::ResultCacheStats before[2];
  for (int i = 0; i < 2; ++i) before[i] = fleet->servers[i]->cache()->stats();
  const service::RouterMetrics router0 = fleet->router->metrics();

  // --- Measured phase ----------------------------------------------------------
  std::vector<ClientLog> logs(kClients);
  std::vector<Sample> samples{
      {0.0, probe_cpu_seconds(ProbeKind::kText), steal_now()}};
  const auto start = Clock::now();
  {
    Gate gate(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        client_loop(fleet->router_socket, round, c * kRequestsPerRound / kClients,
                    options.seconds, start, gate, tracer, logs[c]);
        gate.leave();
      });
    }
    for (;;) {
      std::this_thread::sleep_for(kSampleEvery);
      if (!gate.close()) {
        break;
      }
      const double p = probe_cpu_seconds(ProbeKind::kText);
      samples.push_back({seconds_between(start, Clock::now()), p, steal_now()});
      gate.open();
    }
    for (auto& t : clients) t.join();
  }
  const double elapsed = seconds_between(start, Clock::now());
  const double rss = peak_rss_mib();
  const service::RouterMetrics router1 = fleet->router->metrics();
  pipeline::ResultCacheStats after[2];
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_entries = 0;
  for (int i = 0; i < 2; ++i) {
    after[i] = fleet->servers[i]->cache()->stats();
    cache_bytes += fleet->servers[i]->cache()->total_bytes();
    cache_entries += fleet->servers[i]->cache()->entry_count();
  }
  fleet.reset();
  std::filesystem::remove_all(root);

  // --- Oracle (untimed): a direct compile of the pool is the reference ------
  pipeline::CompilationDriver driver(rig.context());
  driver.set_jobs(1);
  std::map<std::string, std::string> direct;
  std::vector<double> rmses;
  std::vector<double> rises;
  std::string reference_error;
  std::vector<Program> programs = tir_pool.programs;
  ir::Module pool_module = tir_pool.module;
  for (const auto& t : texpr_pool) {
    auto parsed = frontend::find_frontend("texpr")->parse(t.source);
    if (!parsed.ok() || parsed.module->size() != 1) {
      reference_error = t.name + ": texpr source does not parse: " +
                        parsed.diagnostics_text();
      continue;
    }
    Program p;
    p.name = t.name;
    p.func = parsed.module->functions()[0];
    p.args = {t.arg};
    p.expected = t.expected;
    pool_module.add_function(p.func);
    programs.push_back(std::move(p));
  }
  const auto compiled = driver.compile(pool_module, kSpec);
  if (!compiled.ok) {
    reference_error = "direct compile of the pool failed: " + compiled.error;
  }
  std::map<std::string, std::string> bad;
  for (std::size_t i = 0; compiled.ok && i < programs.size(); ++i) {
    const auto& f = compiled.functions[i];
    direct[f.name] = ir::to_string(f.run.state.func);
    ThermalCheck tc;
    const std::string why = check_compiled(rig, programs[i], f, &tc);
    // The two thermal averages cover the tir pool, made like every other
    // workload's modules; the texpr loops barely warm the file and would
    // make the averages bimodal.
    if (why.empty() && i < kTirPool) {
      if (tc.converged) rmses.push_back(tc.rmse_k);
      rises.push_back(tc.output_peak_rise_k);
    }
    if (!why.empty()) bad[f.name] = why;
  }

  ClientLog all;
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(elapsed / kWindowSeconds));
  const std::vector<double> scale = window_scale(samples, windows);
  std::vector<std::vector<double>> per_request(kRequestsPerRound);
  double raw_ms = 0;
  double normalized_ms = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    ClientLog& log = logs[c];
    for (std::size_t i = 0; i < log.done_s.size(); ++i) {
      const auto w = std::min(
          windows - 1, static_cast<std::size_t>(log.done_s[i] / kWindowSeconds));
      const double ms = log.latency_ms[i] * scale[w];
      per_request[log.request[i]].push_back(ms);
      raw_ms += log.latency_ms[i];
      normalized_ms += ms;
    }
    all.encode_s += log.encode_s;
    all.decode_s += log.decode_s;
    all.wire_s += log.wire_s;
    all.server_s += log.server_s;
    all.parse_s += log.parse_s;
    all.request_bytes += log.request_bytes;
    all.response_bytes += log.response_bytes;
    all.functions += log.functions;
    all.requests += log.requests;
    all.not_from_cache += log.not_from_cache;
    all.passes.functions += log.passes.functions;
    for (const auto& [stem, seconds] : log.passes.pass_seconds) {
      all.passes.pass_seconds[stem] += seconds;
    }
    for (const auto& why : log.failures) report.failures.push_back(why);
    const std::size_t first_op = report.attempted();
    for (char failed : log.sample_failed) {
      const std::size_t id = report.add_op();
      if (failed) report.op_failed[id] = 1;
    }
    // A request whose first-round output is wrong failed in every round.
    for (std::size_t r = 0; r < log.first.size(); ++r) {
      std::string why;
      for (std::size_t i = 0; i < log.first[r].size() && why.empty(); ++i) {
        const std::string& name = round[r].names[i];
        const auto it = direct.find(name);
        if (bad.count(name) != 0) {
          why = bad[name];
        } else if (it == direct.end() || it->second != log.first[r][i]) {
          why = "routed output of " + name + " differs from a direct compile";
        }
      }
      for (std::size_t i = 0; !why.empty() && i < log.request.size(); ++i) {
        if (log.request[i] == r) report.fail(first_op + i, why);
      }
    }
    int parent = -1;
    for (const auto& s : log.spans) {
      const int id = tracer.add(s.name, s.op + 1000000 * c, s.start, s.end,
                                s.child ? parent : -1);
      if (!s.child) parent = id;
    }
  }
  if (!reference_error.empty()) {
    report.fail_all(reference_error);
  }

  // A closed loop keeps kClients requests in flight, so at each request's
  // median latency one round per client takes the sum of those medians.
  const std::vector<double> latencies = per_op_medians(per_request);
  if (latencies.empty()) {
    std::cerr << "no request completed\n";
    return report;
  }
  double round_functions = 0;
  for (std::size_t r = 0; r < kRequestsPerRound; ++r) {
    if (!per_request[r].empty()) round_functions += round[r].names.size();
  }
  double round_ms = 0;
  for (double ms : latencies) round_ms += ms;
  const double functions_per_s = kClients * round_functions / (round_ms / 1e3);
  const double speed = normalized_ms / std::max(1e-9, raw_ms);

  const double requests = static_cast<double>(std::max<std::uint64_t>(1, all.requests));

  if (!tracer.enabled()) {
    const TailLatency tail = tail_latency(all_samples(per_request));
    report.metric("setup_s", stats::median(setups), "s");
    report.metric("functions_per_s", functions_per_s, "1/s");
    report.metric("latency_p50_ms", stats::median(latencies), "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("dfa_rmse_k", pooled_rmse(rmses), "K");
    report.metric("output_peak_rise_k", interquartile_mean(rises), "K");
    report.note("latency_tail_ms is p" + fixed(tail.percentile, 2) +
                " of " + std::to_string(tail.samples) + " requests (" +
                std::to_string(tail.beyond) + " beyond)");
  } else {
    std::uint64_t hits = 0, misses = 0, stores = 0;
    for (int i = 0; i < 2; ++i) {
      hits += after[i].hits - before[i].hits;
      misses += after[i].misses - before[i].misses;
      stores += after[i].stores - before[i].stores;
    }
    std::uint64_t forwarded = 0;
    for (std::size_t i = 0; i < router1.shards.size(); ++i) {
      forwarded += router1.shards[i].forwarded - router0.shards[i].forwarded;
    }
    const double fns = static_cast<double>(std::max<std::uint64_t>(1, all.functions));
    report.metric("frontend.parse_ms", 1e3 * speed * all.parse_s / requests, "ms");
    all.passes.report_times(report, speed);
    report.metric("cache.restore_ms", 1e3 * speed * all.server_s / fns, "ms");
    report.metric("cache.hits", static_cast<double>(hits) / requests, "count");
    report.metric("cache.misses", static_cast<double>(misses) / requests, "count");
    report.metric("cache.stores", static_cast<double>(stores) / requests, "count");
    report.metric("cache.hit_ratio",
                  static_cast<double>(hits) /
                      static_cast<double>(std::max<std::uint64_t>(1, hits + misses)),
                  "ratio");
    report.metric("cache.kb_per_function",
                  static_cast<double>(cache_bytes) / 1024.0 /
                      static_cast<double>(std::max<std::uint64_t>(1, cache_entries)),
                  "KiB");
    report.metric("protocol.encode_us", 1e6 * speed * all.encode_s / requests, "us");
    report.metric("protocol.decode_us", 1e6 * speed * all.decode_s / requests, "us");
    report.metric("protocol.request_kb",
                  static_cast<double>(all.request_bytes) / 1024.0 / requests, "KiB");
    report.metric("protocol.response_kb",
                  static_cast<double>(all.response_bytes) / 1024.0 / requests,
                  "KiB");
    report.metric("server.compute_ms", 1e3 * speed * all.server_s / requests, "ms");
    report.metric("service.overhead_ms",
                  1e3 * speed * (all.wire_s - all.server_s) / requests, "ms");
    report.metric("router.shards_per_request",
                  static_cast<double>(forwarded) / requests, "count");
    report.metric("trace.functions_per_s", functions_per_s, "1/s");
  }
  report.note("raw (unscaled) functions_per_s " +
              fixed(static_cast<double>(all.functions) / elapsed, 2) +
              ", host speed factor " + fixed(speed, 3) + ", samples " +
              std::to_string(samples.size()) + ", steal on the pinned vCPU " +
              fixed(samples.back().steal - samples.front().steal, 2) + " s");
  report.note("requests " + std::to_string(all.requests) + " over " +
              std::to_string(kClients) + " closed-loop clients; functions " +
              std::to_string(all.functions) + ", not from cache " +
              std::to_string(all.not_from_cache));
  return report;
}

}  // namespace perfbench
