// perfbench — the benchmark of the pooled TCU runtime.
//
//   perfbench --workload <mlp_infer|closure_dag|gauss_elim> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|small]
//             [--trace-out <file.json>] [--wrong-reference]
//
// One invocation times one workload: repeated calls of a pooled paper
// algorithm through one persistent PoolExecutor (p = 3 units on the micro
// backend), each call checked against the serial Device result: output
// bits, the workload's counter contract, and no exception. --trace 0
// reports the end-to-end metrics with no observer attached; --trace 1
// runs the phases that give the per-layer metrics and the ungated tail
// latency, including a separate traced pass (README.md defines every
// metric). The last line of stdout
// is one JSON object; the exit code is nonzero if any call failed.
// --wrong-reference corrupts the reference output, so every check fails;
// the benchmark's own tests use it.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/counters.hpp"
#include "core/device.hpp"
#include "core/pool.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;

constexpr std::size_t kUnits = 3;
constexpr std::size_t kSetups = 15;       ///< setup_s is their median
constexpr std::size_t kMinCalls = 100;    ///< least calls behind call_ms
constexpr std::size_t kBlockCalls = 100;  ///< calls per p90 block (and minimum)
constexpr std::size_t kModelCalls = 8;    ///< sim_cost: calls after set-up
constexpr std::size_t kTracedCalls = 40;
constexpr std::size_t kSerialCalls = 5;
constexpr double kHardStopSeconds = 100;  ///< min_calls never runs past this

constexpr const char* kUsage =
    "usage: perfbench --workload <mlp_infer|closure_dag|gauss_elim> "
    "--seed <n> --seconds <s> --trace <0|1> [--size full|small] "
    "[--trace-out <file.json>] [--wrong-reference]\n";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string trace_out;
  bool wrong_reference = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
        if (!(o.seconds > 0 && o.seconds <= 60)) {
          usage("--seconds: 0 < s <= 60");
        }
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--size") {
        const std::string v = value();
        if (v != "full" && v != "small") usage("--size takes full or small");
        o.small = v == "small";
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else if (arg == "--wrong-reference") {
        o.wrong_reference = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {  // stoull / stod rejected the value
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// Why this build would measure something other than the shipped runtime,
/// or nullopt when it is fit to time.
std::optional<std::string> misconfiguration() {
#ifndef __OPTIMIZE__
  return std::string("built without optimization");
#else
  const tcu::Device<double> dense(
      perfbench::unit_config<double>(perfbench::kFullShape, 1));
  const tcu::Device<tcu::graph::Vert> integral(
      perfbench::unit_config<tcu::graph::Vert>(perfbench::kFullShape, 1));
  if (dense.observer() != nullptr || integral.observer() != nullptr) {
    return std::string("a contract checker is auto-attached (TCU_CHECK=ON)");
  }
  if (dense.backend().kind() != tcu::BackendKind::kMicro ||
      integral.backend().kind() != tcu::BackendKind::kMicro) {
    return std::string("the backend does not resolve to micro");
  }
  return std::nullopt;
#endif
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile: n - ceil(q n) samples lie beyond it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Tail latency of a run: the p90 of each consecutive block of kBlockCalls
/// calls (a short last block joins the one before), median over blocks.
/// Every block has at least 10 calls beyond its p90, and a burst of noise
/// from other guests on the host moves one block, not the figure.
double blocked_p90(const std::vector<double>& calls) {
  const std::size_t blocks =
      std::max<std::size_t>(1, calls.size() / kBlockCalls);
  std::vector<double> p90s;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first =
        calls.begin() + static_cast<std::ptrdiff_t>(b * kBlockCalls);
    const auto last = b + 1 == blocks ? calls.end() : first + kBlockCalls;
    p90s.push_back(percentile({first, last}, 0.9));
  }
  return median(p90s);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every unit's counters plus the shared CPU counter, read while the pool
/// is quiescent.
struct Snapshot {
  std::vector<tcu::Counters> units;
  tcu::Counters shared;
  std::uint64_t backend_ns = 0;  ///< sum of the units' Device::wall_ns()
};

template <typename T>
Snapshot snapshot(const tcu::DevicePool<T>& pool) {
  Snapshot s;
  for (std::size_t u = 0; u < pool.size(); ++u) {
    s.units.push_back(pool.unit(u).counters());
    s.backend_ns += pool.unit(u).wall_ns();
  }
  s.shared = pool.cpu();
  return s;
}

tcu::Counters aggregate_delta(const Snapshot& after, const Snapshot& before) {
  tcu::Counters total = perfbench::counters_delta(after.shared, before.shared);
  for (std::size_t u = 0; u < after.units.size(); ++u) {
    total += perfbench::counters_delta(after.units[u], before.units[u]);
  }
  return total;
}

/// Model makespan of one call: the shared CPU work plus the busiest unit's
/// charges during the call (every call starts and ends with idle lanes).
std::uint64_t call_makespan(const Snapshot& after, const Snapshot& before) {
  std::uint64_t worst = 0;
  for (std::size_t u = 0; u < after.units.size(); ++u) {
    const tcu::Counters d =
        perfbench::counters_delta(after.units[u], before.units[u]);
    worst = std::max(worst, d.tensor_time + d.cpu_ops);
  }
  return worst + (after.shared.cpu_ops - before.shared.cpu_ops);
}

template <typename T>
bool same_bits(const tcu::Matrix<T>& a, const tcu::Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;  // JSON has no inf/nan; ratios guard zero
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

template <typename W>
class Bench {
 public:
  using T = typename W::T;
  using Pool = tcu::DevicePool<T>;
  using Exec = tcu::PoolExecutor<T>;

  /// A pool and the persistent executor over it (destroyed first).
  struct Pooled {
    std::unique_ptr<Pool> pool;
    std::unique_ptr<Exec> exec;
    void reset() {
      exec.reset();
      pool.reset();
    }
  };

  struct Call {
    Clock::time_point begin, end;
    double caller_cpu_ns = 0;
    Snapshot before, after;
    double ns() const { return ns_between(begin, end); }
    double ms() const { return ns() / 1e6; }
  };

  Bench(W& workload, const Options& opts) : w_(workload), opts_(opts) {}

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  /// The serial Device result every call is checked against.
  void make_reference() {
    tcu::Device<T> dev(w_.serial_config());
    w_.prepare();
    w_.run_serial(dev);
    reference_ = w_.output();
    ref_counters_ = dev.counters();
    if (opts_.wrong_reference && reference_.size() > 0) {
      reinterpret_cast<unsigned char*>(reference_.data())[0] ^= 1;
    }
  }

  std::vector<Metric> end_to_end() {
    std::vector<double> setups;
    Pooled pooled;
    for (std::size_t k = 0; k < kSetups; ++k) setups.push_back(setup(pooled));
    const Timed timed = timed_phase(pooled, opts_.seconds, kMinCalls);
    std::printf("# call_ms over %zu calls\n", timed.call_ms.size());
    return {
        {"call_ms", median(timed.call_ms), "ms"},
        {"sim_cost", median(timed.sim_costs), "model_units"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  }

  std::vector<Metric> per_layer() {
    // Untraced calls: the baseline for the tracing overhead and the
    // measured wall speedup.
    Pooled pooled;
    setup(pooled);
    const Timed untraced = timed_phase(pooled, opts_.seconds / 2, kBlockCalls);
    pooled.reset();
    const std::size_t n_untraced = untraced.call_ms.size();
    std::printf("# call_ms_p90 over %zu blocks of >= %zu calls\n",
                std::max<std::size_t>(1, n_untraced / kBlockCalls),
                kBlockCalls);
    const double call_ms = median(untraced.call_ms);
    const double sim_cost = median(untraced.sim_costs);

    setup(pooled);  // a fresh pool: the traced calls' history is fixed
    const Traced traced = traced_phase(pooled);
    pooled.reset();
    const Serial serial = serial_phase();

    const double p = static_cast<double>(kUnits);
    const double n = static_cast<double>(traced.calls.size());
    std::vector<double> busy_ms, gflops, share, body_ms, glue_ms, wait_ms,
        head_ms, tail_ms, busy_frac, imbalance, caller_ms, coverage,
        traced_ms;
    tcu::Counters dev;
    double tasks = 0;
    for (const TracedCall& c : traced.calls) {
      const double busy = static_cast<double>(c.call.after.backend_ns -
                                              c.call.before.backend_ns);
      const tcu::Counters d = aggregate_delta(c.call.after, c.call.before);
      dev += d;
      tasks += static_cast<double>(c.split.tasks);
      busy_ms.push_back(busy / 1e6);
      gflops.push_back(ratio(2.0 * static_cast<double>(d.tensor_macs), busy));
      share.push_back(ratio(busy, p * c.split.call_ns));
      body_ms.push_back(c.split.body_ns / 1e6);
      glue_ms.push_back((c.split.body_ns - c.split.backend_ns) / 1e6);
      wait_ms.push_back(c.split.lane_wait_ns / 1e6);
      head_ms.push_back(c.split.head_ns / 1e6);
      tail_ms.push_back(c.split.tail_ns / 1e6);
      busy_frac.push_back(ratio(c.split.body_ns, p * c.split.call_ns));
      imbalance.push_back(ratio(c.split.max_lane_body_ns, c.split.body_ns / p));
      caller_ms.push_back(c.call.caller_cpu_ns / 1e6);
      coverage.push_back(c.split.coverage);
      traced_ms.push_back(c.call.ms());
    }
    const auto per_call = [n](std::uint64_t total) {
      return static_cast<double>(total) / n;
    };
    const double sim_speedup =
        ratio(static_cast<double>(ref_counters_.time()), sim_cost);
    const double wall_speedup = ratio(serial.call_ms, call_ms);
    return {
        {"call_ms_p90", blocked_p90(untraced.call_ms), "ms"},
        {"backend.busy_ms", median(busy_ms), "ms"},
        {"backend.gflops", median(gflops), "Gflop/s"},
        {"backend.share", median(share), "fraction"},
        {"device.tensor_calls", per_call(dev.tensor_calls), "count"},
        {"device.tagged_calls", per_call(dev.tagged_calls), "count"},
        {"device.resident_hits", per_call(dev.resident_hits), "count"},
        {"device.hit_ratio",
         ratio(static_cast<double>(dev.resident_hits),
               static_cast<double>(dev.tagged_calls)),
         "fraction"},
        {"device.latency_saved", per_call(dev.latency_saved), "model_units"},
        {"device.evictions", per_call(dev.evictions), "count"},
        {"device.cpu_ops", per_call(dev.cpu_ops), "model_units"},
        {"pool.tasks", tasks / n, "count"},
        {"pool.task_us_p50", percentile(traced.task_us, 0.5), "us"},
        {"pool.task_us_p90", percentile(traced.task_us, 0.9), "us"},
        {"pool.body_ms", median(body_ms), "ms"},
        {"pool.glue_ms", median(glue_ms), "ms"},
        {"pool.lane_wait_ms", median(wait_ms), "ms"},
        {"pool.head_ms", median(head_ms), "ms"},
        {"pool.tail_ms", median(tail_ms), "ms"},
        {"pool.lane_busy_frac", median(busy_frac), "fraction"},
        {"pool.lane_imbalance", median(imbalance), "ratio"},
        {"pool.caller_cpu_ms", median(caller_ms), "ms"},
        {"serial.call_ms", serial.call_ms, "ms"},
        {"serial.backend_ms", serial.backend_ms, "ms"},
        {"model.sim_speedup", sim_speedup, "ratio"},
        {"model.wall_speedup", wall_speedup, "ratio"},
        {"model.sim_wall_gap", ratio(wall_speedup, sim_speedup), "ratio"},
        {"trace.overhead_frac", ratio(median(traced_ms), call_ms) - 1.0,
         "fraction"},
        {"trace.coverage", median(coverage), "fraction"},
        {"failed_frac",
         ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
         "fraction"},
    };
  }

 private:
  struct Timed {
    std::vector<double> call_ms;
    std::vector<double> sim_costs;  ///< the first kModelCalls calls
  };
  struct TracedCall {
    Call call;
    perfbench::CallSplit split;
  };
  struct Traced {
    std::vector<TracedCall> calls;
    std::vector<double> task_us;
  };
  struct Serial {
    double call_ms = 0;
    double backend_ms = 0;
  };

  /// Pool and executor construction plus the cold first call, in seconds.
  /// A fresh model makes the cold call pay lazy weight packing again.
  double setup(Pooled& pooled) {
    pooled.reset();
    w_.reset_model();
    const auto t0 = Clock::now();
    pooled.pool = std::make_unique<Pool>(kUnits, w_.pool_config());
    pooled.exec = std::make_unique<Exec>(*pooled.pool);
    const double build_ns = ns_between(t0, Clock::now());
    return (build_ns + call(pooled).ns()) / 1e9;
  }

  /// One checked pooled call. Input restoring, snapshots, and the check
  /// stay outside the timed window.
  Call call(Pooled& pooled) {
    w_.prepare();
    Call c;
    c.before = snapshot(*pooled.pool);
    std::string error;
    const double cpu0 = thread_cpu_ns();
    c.begin = Clock::now();
    try {
      w_.run_pooled(*pooled.exec);
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    c.end = Clock::now();
    c.caller_cpu_ns = thread_cpu_ns() - cpu0;
    c.after = snapshot(*pooled.pool);
    if (error.empty() && !same_bits(w_.output(), reference_)) {
      error = "output bits differ from the serial Device";
    }
    if (error.empty() &&
        !W::contract(aggregate_delta(c.after, c.before), ref_counters_)) {
      error = "counter contract broken";
    }
    tally(error);
    return c;
  }

  void tally(const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    if (++failed_ <= 5) {
      std::fprintf(stderr, "perfbench: %s call %zu failed: %s\n", W::kName,
                   attempted_, error.c_str());
    }
  }

  /// Closed-loop calls until `seconds` have passed and at least
  /// `min_calls` ran.
  Timed timed_phase(Pooled& pooled, double seconds, std::size_t min_calls) {
    Timed out;
    const auto start = Clock::now();
    for (;;) {
      const double elapsed = ns_between(start, Clock::now()) / 1e9;
      const std::size_t n = out.call_ms.size();
      if (elapsed >= seconds && n >= min_calls) break;
      if (elapsed >= kHardStopSeconds) break;
      const Call c = call(pooled);
      out.call_ms.push_back(c.ms());
      if (out.sim_costs.size() < kModelCalls) {
        out.sim_costs.push_back(
            static_cast<double>(call_makespan(c.after, c.before)));
      }
    }
    return out;
  }

  /// kTracedCalls calls with a LaneTracer on every unit.
  Traced traced_phase(Pooled& pooled) {
    const auto origin = Clock::now();
    std::vector<std::unique_ptr<perfbench::LaneTracer<T>>> tracers;
    for (std::size_t u = 0; u < kUnits; ++u) {
      tracers.push_back(std::make_unique<perfbench::LaneTracer<T>>(
          pooled.pool->unit(u), origin));
      pooled.pool->unit(u).set_observer(tracers.back().get());
    }
    Traced out;
    std::vector<perfbench::LaneSlice> lanes(kUnits);
    for (std::size_t u = 0; u < kUnits; ++u) {
      lanes[u].spans = &tracers[u]->spans();
    }
    for (std::size_t k = 0; k < kTracedCalls; ++k) {
      for (auto& lane : lanes) lane.first = lane.spans->size();
      TracedCall tc;
      tc.call = call(pooled);
      for (auto& lane : lanes) lane.last = lane.spans->size();
      tc.split = perfbench::split_call(
          lanes, perfbench::since(origin, tc.call.begin),
          perfbench::since(origin, tc.call.end));
      out.calls.push_back(std::move(tc));
    }
    for (std::size_t u = 0; u < kUnits; ++u) {
      pooled.pool->unit(u).set_observer(nullptr);
      for (const perfbench::Span& s : tracers[u]->spans()) {
        out.task_us.push_back(static_cast<double>(s.end_ns - s.begin_ns) /
                              1e3);
      }
    }
    if (!opts_.trace_out.empty()) write_chrome_trace(origin, tracers, out);
    return out;
  }

  /// The same problem on one Device, timed in a phase of its own.
  Serial serial_phase() {
    tcu::Device<T> dev(w_.serial_config());
    std::vector<double> call_ms, backend_ms;
    for (std::size_t k = 0; k < kSerialCalls; ++k) {
      w_.prepare();
      const tcu::Counters before = dev.counters();
      const std::uint64_t wall0 = dev.wall_ns();
      std::string error;
      const auto t0 = Clock::now();
      try {
        w_.run_serial(dev);
      } catch (const std::exception& e) {
        error = std::string("serial call threw: ") + e.what();
      }
      const auto t1 = Clock::now();
      call_ms.push_back(ns_between(t0, t1) / 1e6);
      backend_ms.push_back(static_cast<double>(dev.wall_ns() - wall0) / 1e6);
      if (error.empty() && !same_bits(w_.output(), reference_)) {
        error = "serial output bits differ from the reference";
      }
      if (error.empty() &&
          !W::contract(perfbench::counters_delta(dev.counters(), before),
                       ref_counters_)) {
        error = "serial counters differ from the reference";
      }
      tally(error);
    }
    return {median(call_ms), median(backend_ms)};
  }

  /// Chrome trace-event JSON: one track for the calling thread and one per
  /// lane; task spans carry their backend and glue nanoseconds.
  void write_chrome_trace(
      Clock::time_point origin,
      const std::vector<std::unique_ptr<perfbench::LaneTracer<T>>>& tracers,
      const Traced& traced) const {
    std::ofstream f(opts_.trace_out);
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opts_.trace_out.c_str());
      return;
    }
    const auto us = [](double ns) { return json_number(ns / 1e3); };
    f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
      << W::kName << "\", \"units\": " << kUnits << "},\n\"traceEvents\": [\n";
    f << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"thread_name\", "
         "\"args\": {\"name\": \"caller\"}}";
    for (std::size_t u = 0; u < tracers.size(); ++u) {
      f << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << u + 1
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"lane " << u
        << "\"}}";
    }
    for (std::size_t k = 0; k < traced.calls.size(); ++k) {
      const Call& c = traced.calls[k].call;
      const auto begin = static_cast<double>(perfbench::since(origin, c.begin));
      f << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \"call\", "
           "\"ts\": "
        << us(begin) << ", \"dur\": " << us(c.ns())
        << ", \"args\": {\"call\": " << k << ", \"sim_cost\": "
        << call_makespan(c.after, c.before) << "}}";
    }
    for (std::size_t u = 0; u < tracers.size(); ++u) {
      for (const perfbench::Span& s : tracers[u]->spans()) {
        const auto dur = static_cast<double>(s.end_ns - s.begin_ns);
        f << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << u + 1
          << ", \"name\": \"task\", \"ts\": "
          << us(static_cast<double>(s.begin_ns)) << ", \"dur\": " << us(dur)
          << ", \"args\": {\"backend_ns\": " << s.backend_ns
          << ", \"glue_ns\": "
          << json_number(dur - static_cast<double>(s.backend_ns)) << "}}";
      }
    }
    f << "\n]}\n";
  }

  W& w_;
  const Options& opts_;
  tcu::Matrix<T> reference_;
  tcu::Counters ref_counters_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

template <typename W>
int run(const Options& opts, const perfbench::Shape& shape) {
  W workload(shape, opts.seed);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              W::kName, static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, opts.small ? "small" : "full");
  std::printf("# machine nproc=%u avx2=%d compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(),
              tcu::micro_simd_active() ? 1 : 0, __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("# config p=%zu backend=micro m=%zu l=%llu %s\n", kUnits,
              shape.m, static_cast<unsigned long long>(shape.latency),
              workload.sizes().c_str());
  Bench<W> bench(workload, opts);
  bench.make_reference();
  const std::vector<Metric> metrics =
      opts.trace ? bench.per_layer() : bench.end_to_end();
  print_result(bench.attempted(), bench.failed(), metrics);
  return bench.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  if (const auto why = misconfiguration()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 why->c_str());
    return 3;
  }
  const perfbench::Shape& shape =
      opts.small ? perfbench::kSmallShape : perfbench::kFullShape;
  try {
    if (opts.workload == perfbench::MlpWorkload::kName) {
      return run<perfbench::MlpWorkload>(opts, shape);
    }
    if (opts.workload == perfbench::ClosureWorkload::kName) {
      return run<perfbench::ClosureWorkload>(opts, shape);
    }
    if (opts.workload == perfbench::GaussWorkload::kName) {
      return run<perfbench::GaussWorkload>(opts, shape);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
  usage("unknown workload " + opts.workload);
}
