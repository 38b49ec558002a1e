#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include <time.h>
#include <unistd.h>

#include "bench.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Report::fail(std::size_t op, const std::string& why) {
  op_failed[op] = 1;
  if (failures.size() < 20) {
    failures.push_back(why);
  }
}

void Report::fail_all(const std::string& why) {
  for (std::size_t op = 0; op < op_failed.size(); ++op) {
    fail(op, why);
  }
}

std::uint64_t Report::failed() const {
  return static_cast<std::uint64_t>(
      std::count(op_failed.begin(), op_failed.end(), 1));
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now() const { return seconds_between(origin_, Clock::now()); }

int Tracer::begin(const std::string& name, std::uint64_t op) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].end_s = now();
  // Spans close in LIFO order (Scope guarantees it).
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

int Tracer::add(const std::string& name, std::uint64_t op, double start_s,
                double end_s, int parent) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent != kOpenParent ? parent
             : open_.empty()       ? -1
                                   : open_.back();
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children of one parent never overlap (one thread records each
  // operation), so covered time is the sum of child durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += std::max(0.0, s.end_s - s.start_s - covered[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s << "}\n";
  }
  return static_cast<bool>(out);
}

// --- Statistics ---------------------------------------------------------------

TailLatency tail_latency(const std::vector<double>& samples) {
  TailLatency t;
  t.samples = samples.size();
  if (samples.empty()) {
    return t;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n <= 10) {
    t.value = sorted.back();
    t.percentile = 100;
    return t;
  }
  // The 11th largest sample, stepping down past ties so that at least
  // ten samples lie strictly beyond it.
  std::size_t i = n - 11;
  while (i > 0 && sorted[i] == sorted[n - 10]) {
    --i;
  }
  t.value = sorted[i];
  t.beyond = static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), t.value));
  t.percentile = 100.0 * static_cast<double>(n - t.beyond) /
                 static_cast<double>(n);
  return t;
}

namespace {

void float_probe_work() {
  constexpr int kSide = 16;
  constexpr int kSteps = 600;
  std::vector<double> g(kSide * kSide, 340.0);
  std::vector<double> h(g);
  g[kSide * kSide / 2 + kSide / 2] = 360.0;
  for (int step = 0; step < kSteps; ++step) {
    for (int i = kSide; i < kSide * (kSide - 1); ++i) {
      h[i] = g[i] +
             0.05 * (g[i - 1] + g[i + 1] + g[i - kSide] + g[i + kSide] -
                     4.0 * g[i]) +
             1e-3 * std::exp(0.01 * (g[i] - 340.0));
    }
    std::swap(g, h);
  }
  // Keeps the grid observable so the loop cannot be optimised away.
  volatile double sink = g[kSide * kSide / 2];
  (void)sink;
}

/// Fixed IR-like text for the text probe, built once.
const std::string& probe_text() {
  static const std::string text = [] {
    std::string t;
    for (int i = 0; i < 160; ++i) {
      t += "  %" + std::to_string(i % 37) + " = add %" +
           std::to_string((i * 7) % 29) + ", " + std::to_string(i * 13) + "\n";
    }
    return t;
  }();
  return text;
}

void text_probe_work() {
  const std::string& text = probe_text();
  std::map<std::string, std::uint64_t> seen;
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (int pass = 0; pass < 9; ++pass) {
    std::string token;
    for (char c : text) {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '%') {
        token += c;
        continue;
      }
      if (!token.empty()) {
        for (char t : token) hash = (hash ^ static_cast<unsigned char>(t)) * 0x100000001b3ull;
        seen[token] += hash & 0xff;
        token.clear();
      }
    }
  }
  volatile std::uint64_t sink = hash + seen.size();
  (void)sink;
}

void probe_work(ProbeKind kind) {
  if (kind == ProbeKind::kFloat) {
    float_probe_work();
  } else {
    text_probe_work();
  }
}

double cpu_clock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double probe_seconds(ProbeKind kind) {
  const auto t0 = Clock::now();
  probe_work(kind);
  return seconds_between(t0, Clock::now());
}

double probe_cpu_seconds(ProbeKind kind) {
  const double t0 = thread_cpu_seconds();
  probe_work(kind);
  return thread_cpu_seconds() - t0;
}

double thread_cpu_seconds() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double SpeedTimer::read() const {
  std::vector<double> probes;
  for (int i = 0; i < repeats_; ++i) {
    probes.push_back(probe_seconds(kind_));
  }
  return stats::median(probes);
}

double SpeedTimer::finish(double raw) {
  const double after = read();
  const double scaled = raw * kProbeReferenceS / (0.5 * (probe_ + after));
  probe_ = after;
  raw_ += raw;
  normalized_ += scaled;
  return scaled;
}

std::vector<double> per_op_medians(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const auto& op : samples) {
    if (!op.empty()) {
      out.push_back(stats::median(op));
    }
  }
  return out;
}

std::vector<double> all_samples(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const auto& op : samples) {
    out.insert(out.end(), op.begin(), op.end());
  }
  return out;
}

double cpu_steal_seconds(int cpu) {
  std::ifstream stat("/proc/stat");
  const std::string label = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream in(line);
    std::string name;
    in >> name;
    if (name != label) {
      continue;
    }
    // user nice system idle iowait irq softirq steal, in clock ticks.
    unsigned long long field = 0;
    for (int i = 0; i < 8 && (in >> field); ++i) {
    }
    return in ? static_cast<double>(field) /
                    static_cast<double>(sysconf(_SC_CLK_TCK))
              : 0.0;
  }
  return 0;
}

double interquartile_mean(std::vector<double> xs) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  const auto cut = static_cast<std::ptrdiff_t>(xs.size() / 4);
  return stats::mean(std::span<const double>(xs.begin() + cut, xs.end() - cut));
}

std::string fixed(double v, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << v;
  return out.str();
}

double pooled_rmse(const std::vector<double>& rmses) {
  double sum = 0;
  for (double r : rmses) sum += r * r;
  return rmses.empty() ? 0.0 : std::sqrt(sum / static_cast<double>(rmses.size()));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::uint64_t mix64(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
