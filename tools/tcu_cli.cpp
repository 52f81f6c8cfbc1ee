// tcu_cli — run any of the paper's algorithms from the command line and
// print the simulated model cost next to the paper's predicted bound.
//
//   tcu_cli <command> [--m M] [--l L] [--size N] [--seed S]
//
// Commands: matmul, strassen, gauss, closure, apsd, dft, stencil,
//           intmul, karatsuba, polyeval, scan, triangles, all.
//
// The `fault` scenario drives the self-healing pool runtime under a
// seeded fault plan and checks the recovery contract end to end:
//
//   tcu_cli fault [--workload matmul|gauss|conv2d|stencil] [--p P]
//                 [--rounds R] [--dead U] [--die-at C] [--rate-ppm F]
//                 [--straggle-us S] [--m M] [--l L] [--size N] [--seed S]
//
// It runs the workload on a serial device, a fault-free pool, and a pool
// under the plan (unit U dies at its C-th call; every call faults
// transiently with probability F*1e-6; unit 0 sleeps S us per call), then
// prints the degraded sim speedup and the RoundReport bookkeeping.
// Exit status is nonzero if the recovered outputs are not bit-identical
// to the serial reference or recovery was exhausted.
//
// The `pool` scenario runs a dependent workload on a pool — one
// dependency-ordered round per call — next to the serial reference:
//
//   tcu_cli pool [--workload closure|gauss|dft|mlp]
//                [--backend sim|micro|blas]
//                [--p P] [--m M] [--l L] [--size N] [--seed S]
//
// It prints the pool makespan, the sim speedup over serial, and whether
// the pooled output is bit-identical to the serial device's. Exit status
// is nonzero on any output mismatch.
//
// Examples:
//   tcu_cli matmul --size 256 --m 1024 --l 100
//   tcu_cli all --size 128
//   tcu_cli fault --workload matmul --p 4 --dead 3 --rate-ppm 2000
//   tcu_cli pool --workload gauss --p 4

#include <cerrno>
#include <complex>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/backend.hpp"
#include "core/costs.hpp"
#include "core/pool.hpp"
#include "dft/dft.hpp"
#include "fault/fault.hpp"
#include "graph/apsd.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "graph/triangles.hpp"
#include "intmul/mul.hpp"
#include "linalg/dense.hpp"
#include "linalg/gauss.hpp"
#include "linalg/parallel.hpp"
#include "linalg/strassen.hpp"
#include "nn/layers.hpp"
#include "poly/poly.hpp"
#include "primitives/primitives.hpp"
#include "stencil/stencil.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using tcu::Counters;
using tcu::Device;
using tcu::Matrix;
using Complex = std::complex<double>;

struct Options {
  std::size_t m = 256;
  std::uint64_t latency = 0;
  std::size_t size = 128;
  std::uint64_t seed = 42;
};

[[noreturn]] void usage() {
  std::cerr
      << "usage: tcu_cli <command> [--m M] [--l L] [--size N] [--seed S]\n"
         "commands: matmul strassen gauss closure apsd dft stencil intmul\n"
         "          karatsuba polyeval scan triangles all\n"
         "       tcu_cli fault [--workload matmul|gauss|conv2d|stencil]\n"
         "                     [--p P] [--rounds R] [--dead U] [--die-at C]\n"
         "                     [--rate-ppm F] [--straggle-us S]\n"
         "                     [--m M] [--l L] [--size N] [--seed S]\n"
         "       tcu_cli pool  [--workload closure|gauss|dft|mlp]\n"
         "                     [--backend sim|micro|blas]\n"
         "                     [--p P] [--m M] [--l L] [--size N] [--seed S]\n";
  std::exit(2);
}

Matrix<double> rand_mat(std::size_t r, std::size_t c, std::uint64_t seed) {
  tcu::util::Xoshiro256 rng(seed);
  Matrix<double> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  return m;
}

struct Row {
  std::string name;
  double measured;
  double predicted;
  double baseline;
};

Row run_matmul(const Options& o) {
  Device<double> dev({.m = o.m, .latency = o.latency});
  auto a = rand_mat(o.size, o.size, o.seed);
  auto b = rand_mat(o.size, o.size, o.seed + 1);
  (void)tcu::linalg::matmul_tcu(dev, a.view(), b.view());
  Counters ram;
  (void)tcu::linalg::matmul_naive<double>(a.view(), b.view(), ram);
  const double n = static_cast<double>(o.size) * o.size;
  return {"matmul (Thm 2)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm2_dense(n, static_cast<double>(o.m),
                                 static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_strassen(const Options& o) {
  Device<double> dev({.m = o.m, .latency = o.latency});
  auto a = rand_mat(o.size, o.size, o.seed);
  auto b = rand_mat(o.size, o.size, o.seed + 1);
  (void)tcu::linalg::matmul_strassen_tcu(dev, a.view(), b.view(), {.p0 = 7});
  Counters ram;
  (void)tcu::linalg::matmul_strassen_ram<double>(a.view(), b.view(), ram);
  const double n = static_cast<double>(o.size) * o.size;
  return {"strassen (Thm 1)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm1_strassen(n, static_cast<double>(o.m),
                                    static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_gauss(const Options& o) {
  const std::size_t s = tcu::exact_sqrt(o.m);
  const std::size_t r = ((o.size + s - 1) / s) * s;
  tcu::util::Xoshiro256 rng(o.seed);
  Matrix<double> c(r, r, 0.0);
  for (std::size_t i = 0; i + 1 < r; ++i) {
    double row = 0;
    for (std::size_t j = 0; j < r; ++j) {
      c(i, j) = rng.uniform(-1, 1);
      row += std::abs(c(i, j));
    }
    c(i, i) = row + 1.0;
  }
  auto c2 = c;
  Device<double> dev({.m = o.m, .latency = o.latency});
  tcu::linalg::ge_forward_tcu(dev, c.view());
  Counters ram;
  tcu::linalg::ge_forward_naive(c2.view(), ram);
  return {"gauss (Thm 4)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm4_gauss(static_cast<double>(r) * r,
                                 static_cast<double>(o.m),
                                 static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_closure(const Options& o) {
  auto adj = tcu::graph::random_digraph(o.size, 0.05, o.seed);
  auto a2 = adj;
  Device<tcu::graph::Vert> dev({.m = o.m, .latency = o.latency});
  tcu::graph::closure_tcu(dev, adj.view());
  Counters ram;
  tcu::graph::closure_naive(a2.view(), ram);
  return {"closure (Thm 5)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm5_closure(static_cast<double>(o.size),
                                   static_cast<double>(o.m),
                                   static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_apsd(const Options& o) {
  auto adj = tcu::graph::random_connected_graph(o.size, 0.05, o.seed);
  Device<std::int64_t> dev({.m = o.m, .latency = o.latency});
  (void)tcu::graph::apsd_seidel(dev, adj.view());
  Counters ram;
  (void)tcu::graph::apsd_bfs(adj.view(), ram);
  return {"apsd (Thm 6)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm6_apsd(static_cast<double>(o.size),
                                static_cast<double>(o.m),
                                static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_dft(const Options& o) {
  std::size_t n = 1;
  while (n < o.size * o.size) n *= 2;  // comparable work to the d x d runs
  tcu::util::Xoshiro256 rng(o.seed);
  tcu::dft::CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  Device<Complex> dev({.m = o.m, .latency = o.latency});
  (void)tcu::dft::dft_tcu(dev, x);
  Counters ram;
  (void)tcu::dft::fft_ram(x, ram);
  return {"dft (Thm 7)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm7_dft(static_cast<double>(n),
                               static_cast<double>(o.m),
                               static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_stencil(const Options& o) {
  const std::size_t k = std::max<std::size_t>(4, o.size / 8);
  auto grid = rand_mat(o.size, o.size, o.seed);
  auto w = tcu::stencil::heat_kernel(0.125, 0.125);
  Device<Complex> dev({.m = o.m, .latency = o.latency});
  (void)tcu::stencil::stencil_tcu(dev, grid.view(), w, k);
  Counters ram;
  (void)tcu::stencil::stencil_direct(grid.view(), w, k, ram);
  return {"stencil (Thm 8)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm8_stencil_refined(
              static_cast<double>(o.size) * o.size, static_cast<double>(k),
              static_cast<double>(o.m), static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_intmul(const Options& o) {
  tcu::util::Xoshiro256 rng(o.seed);
  const std::size_t bits = o.size * 64;
  const auto a = tcu::intmul::BigInt::random_bits(bits, rng);
  const auto b = tcu::intmul::BigInt::random_bits(bits, rng);
  Device<std::int64_t> dev({.m = o.m, .latency = o.latency});
  (void)tcu::intmul::mul_schoolbook_tcu(dev, a, b);
  Counters ram;
  (void)tcu::intmul::mul_schoolbook_ram(a, b, ram);
  return {"intmul (Thm 9)", static_cast<double>(dev.counters().time()),
          tcu::costs::thm9_intmul(static_cast<double>(bits), 64.0,
                                  static_cast<double>(o.m),
                                  static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_karatsuba(const Options& o) {
  tcu::util::Xoshiro256 rng(o.seed);
  const std::size_t bits = o.size * 64;
  const auto a = tcu::intmul::BigInt::random_bits(bits, rng);
  const auto b = tcu::intmul::BigInt::random_bits(bits, rng);
  Device<std::int64_t> dev({.m = o.m, .latency = o.latency});
  (void)tcu::intmul::mul_karatsuba_tcu(dev, a, b);
  Counters ram;
  (void)tcu::intmul::mul_karatsuba_ram(a, b, ram);
  return {"karatsuba (Thm 10)",
          static_cast<double>(dev.counters().time()),
          tcu::costs::thm10_karatsuba(static_cast<double>(bits), 64.0,
                                      static_cast<double>(o.m),
                                      static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_polyeval(const Options& o) {
  tcu::util::Xoshiro256 rng(o.seed);
  const std::size_t n = o.size * 16, p = o.size;
  std::vector<double> coeffs(n), points(p);
  for (auto& v : coeffs) v = rng.uniform(-1, 1);
  for (auto& v : points) v = rng.uniform(-1, 1);
  Device<double> dev({.m = o.m, .latency = o.latency});
  (void)tcu::poly::eval_tcu(dev, coeffs, points);
  Counters ram;
  (void)tcu::poly::eval_horner(coeffs, points, ram);
  return {"polyeval (Thm 11)",
          static_cast<double>(dev.counters().time()),
          tcu::costs::thm11_polyeval(static_cast<double>(n),
                                     static_cast<double>(p),
                                     static_cast<double>(o.m),
                                     static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

Row run_scan(const Options& o) {
  tcu::util::Xoshiro256 rng(o.seed);
  std::vector<double> data(o.size * o.size);
  for (auto& v : data) v = rng.uniform(-1, 1);
  Device<double> dev({.m = o.m, .latency = o.latency});
  (void)tcu::primitives::inclusive_scan_tcu(dev, data);
  Counters ram;
  (void)tcu::primitives::inclusive_scan_ram(data, ram);
  return {"scan (prim)", static_cast<double>(dev.counters().time()),
          static_cast<double>(data.size()),
          static_cast<double>(ram.time())};
}

Row run_triangles(const Options& o) {
  auto g = tcu::graph::random_connected_graph(o.size, 0.3, o.seed);
  Device<std::int64_t> dev({.m = o.m, .latency = o.latency});
  (void)tcu::graph::count_triangles_tcu(dev, g.view());
  Counters ram;
  (void)tcu::graph::count_triangles_ram(g.view(), ram);
  return {"triangles", static_cast<double>(dev.counters().time()),
          tcu::costs::thm2_dense(static_cast<double>(o.size) * o.size,
                                 static_cast<double>(o.m),
                                 static_cast<double>(o.latency)),
          static_cast<double>(ram.time())};
}

// ------------------------------------------------------------- fault driver

struct FaultOptions {
  std::string workload = "matmul";
  std::size_t p = 4;
  int rounds = 2;
  std::size_t m = 256;
  std::uint64_t latency = 64;
  std::size_t size = 96;
  std::uint64_t seed = 42;
  bool has_dead = false;
  std::size_t dead = 0;
  std::uint64_t die_at = 0;
  std::uint64_t rate_ppm = 0;
  std::uint64_t straggle_us = 0;
};

/// Serial reference, fault-free pool, faulty pool: `serial` runs one
/// round on a Device<T>, `pooled` one round on a PoolExecutor<T>; both
/// must produce the same bits for fixed inputs. Returns the process exit
/// status.
template <typename T, typename Serial, typename Pooled>
int fault_drive(const FaultOptions& fo, const tcu::fault::FaultSpec& spec,
                Serial serial, Pooled pooled) {
  Device<T> ref({.m = fo.m, .latency = fo.latency});
  Matrix<double> expect(1, 1);
  for (int r = 0; r < fo.rounds; ++r) expect = serial(ref);

  tcu::DevicePool<T> clean(fo.p, {.m = fo.m, .latency = fo.latency});
  {
    tcu::PoolExecutor<T> exec(clean);
    for (int r = 0; r < fo.rounds; ++r) (void)pooled(exec);
  }

  tcu::DevicePool<T> pool(fo.p, {.m = fo.m, .latency = fo.latency});
  tcu::fault::FaultPlan plan(fo.seed, spec);
  tcu::fault::ScopedInjection<T> inject(pool, plan);
  bool outputs_match = false;
  tcu::RoundReport report;
  try {
    tcu::PoolExecutor<T> exec(pool);
    Matrix<double> got(1, 1);
    for (int r = 0; r < fo.rounds; ++r) got = pooled(exec);
    outputs_match = got == expect;
    report = exec.fault_stats();
  } catch (const tcu::fault::FaultError& err) {
    std::cerr << "tcu_cli fault: recovery exhausted: " << err.what() << "\n";
    return 1;
  }

  const auto serial_time = static_cast<double>(ref.counters().time());
  std::cout << "  serial model time    : " << ref.counters().time() << "\n"
            << "  fault-free pool      : makespan " << clean.makespan()
            << ", sim speedup "
            << tcu::util::fmt(serial_time /
                                  static_cast<double>(clean.makespan()),
                              2)
            << "\n"
            << "  faulty pool          : makespan " << pool.makespan()
            << ", sim speedup "
            << tcu::util::fmt(serial_time /
                                  static_cast<double>(pool.makespan()),
                              2)
            << "\n"
            << "  outputs bit-identical: "
            << (outputs_match ? "yes" : "NO") << "\n"
            << "  transients injected  : " << plan.transients_injected()
            << " (retried " << report.retried << ", redealt "
            << report.redealt << ", drained " << report.drained << ")\n"
            << "  quarantined units    : [";
  for (std::size_t i = 0; i < report.quarantined.size(); ++i) {
    std::cout << (i ? " " : "") << report.quarantined[i];
  }
  std::cout << "] -> " << report.healthy_units << "/" << fo.p
            << " healthy\n";
  return outputs_match ? 0 : 1;
}

/// Parse a flag's value as a decimal number, or die with a diagnostic
/// (strtoull's silent 0 on garbage would turn a typo into a valid plan).
std::uint64_t parse_num(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const auto num = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE) {
    std::cerr << "tcu_cli: " << flag << " expects a number, got '"
              << value << "'\n";
    usage();
  }
  return num;
}

int run_fault(int argc, char** argv) {
  FaultOptions fo;
  int i = 2;
  for (; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      fo.workload = value;
      continue;
    }
    const auto num = parse_num(flag, value);
    if (flag == "--p") {
      fo.p = num;
    } else if (flag == "--rounds") {
      fo.rounds = static_cast<int>(num);
    } else if (flag == "--dead") {
      fo.has_dead = true;
      fo.dead = num;
    } else if (flag == "--die-at") {
      fo.die_at = num;
    } else if (flag == "--rate-ppm") {
      fo.rate_ppm = num;
    } else if (flag == "--straggle-us") {
      fo.straggle_us = num;
    } else if (flag == "--m") {
      fo.m = num;
    } else if (flag == "--l") {
      fo.latency = num;
    } else if (flag == "--size") {
      fo.size = num;
    } else if (flag == "--seed") {
      fo.seed = num;
    } else {
      usage();
    }
  }
  if (i < argc) {  // a trailing flag with no value must not pass silently
    std::cerr << "tcu_cli fault: missing value for '" << argv[i] << "'\n";
    usage();
  }

  tcu::fault::FaultSpec spec;
  if (fo.has_dead) spec.death_at = {{fo.dead, fo.die_at}};
  if (fo.rate_ppm > 0) {
    spec.transient_rate = static_cast<double>(fo.rate_ppm) * 1e-6;
  }
  if (fo.straggle_us > 0) {  // one slow unit: the straggler-tolerance case
    spec.stragglers = {0};
    spec.straggle_us = fo.straggle_us;
  }

  // Round dimensions up so the strip/panel decompositions are exact.
  const std::size_t s = tcu::exact_sqrt(fo.m);
  const std::size_t d = ((fo.size + s - 1) / s) * s;

  std::cout << "fault scenario: workload=" << fo.workload << " p=" << fo.p
            << " rounds=" << fo.rounds << " seed=" << fo.seed;
  if (fo.has_dead) std::cout << " dead=" << fo.dead << "@" << fo.die_at;
  if (fo.rate_ppm) std::cout << " rate=" << fo.rate_ppm << "ppm";
  if (fo.straggle_us) std::cout << " straggle=" << fo.straggle_us << "us";
  std::cout << "\n";

  if (fo.workload == "matmul") {
    auto a = rand_mat(d, d, fo.seed);
    auto b = rand_mat(d, d, fo.seed + 1);
    return fault_drive<double>(
        fo, spec,
        [&](Device<double>& dev) {
          return tcu::linalg::matmul_tcu(dev, a.view(), b.view());
        },
        [&](tcu::PoolExecutor<double>& exec) {
          return tcu::linalg::matmul_tcu_pool(exec, a.view(), b.view());
        });
  }
  if (fo.workload == "gauss") {
    // Diagonally dominant input: the forward elimination stays benign.
    tcu::util::Xoshiro256 rng(fo.seed);
    Matrix<double> x(d, d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
      double row = 0;
      for (std::size_t j = 0; j < d; ++j) {
        x(i, j) = rng.uniform(-1, 1);
        row += std::abs(x(i, j));
      }
      x(i, i) = row + 1.0;
    }
    return fault_drive<double>(
        fo, spec,
        [&](Device<double>& dev) {
          Matrix<double> c = x;
          tcu::linalg::ge_forward_tcu(dev, c.view());
          return c;
        },
        [&](tcu::PoolExecutor<double>& exec) {
          Matrix<double> c = x;
          tcu::linalg::ge_forward_tcu_pool(exec, c.view());
          return c;
        });
  }
  if (fo.workload == "conv2d") {
    const std::size_t channels = 2, kh = 2, kw = 2, filters_out = 3;
    auto input = rand_mat(channels * fo.size, fo.size, fo.seed);
    auto filters = rand_mat(filters_out, channels * kh * kw, fo.seed + 1);
    return fault_drive<double>(
        fo, spec,
        [&](Device<double>& dev) {
          return tcu::nn::conv2d_tcu(dev, input.view(), channels,
                                     filters.view(), kh, kw);
        },
        [&](tcu::PoolExecutor<double>& exec) {
          return tcu::nn::conv2d_tcu_pool(exec, input.view(), channels,
                                          filters.view(), kh, kw);
        });
  }
  if (fo.workload == "stencil") {
    auto grid = rand_mat(fo.size, fo.size, fo.seed);
    const auto w = tcu::stencil::heat_kernel(0.125, 0.125);
    const std::size_t k = std::max<std::size_t>(4, fo.size / 8);
    return fault_drive<Complex>(
        fo, spec,
        [&](Device<Complex>& dev) {
          return tcu::stencil::stencil_tcu(dev, grid.view(), w, k);
        },
        [&](tcu::PoolExecutor<Complex>& exec) {
          return tcu::stencil::stencil_tcu_pool(exec, grid.view(), w, k);
        });
  }
  usage();
}

// -------------------------------------------------------------- pool driver

struct PoolOptions {
  std::string workload = "closure";
  tcu::BackendKind backend = tcu::BackendKind::kDefault;
  std::size_t p = 4;
  std::size_t m = 256;
  std::uint64_t latency = 64;
  std::size_t size = 96;
  std::uint64_t seed = 42;
};

/// One dependent workload, serial vs pooled: `serial` runs on a
/// Device<T>, `pooled` on a PoolExecutor<T>; both must produce the same
/// bits. Returns the process exit status (nonzero on mismatch).
template <typename T, typename Serial, typename Pooled>
int pool_drive(const PoolOptions& po, Serial serial, Pooled pooled) {
  Device<T> ref({.m = po.m, .latency = po.latency, .backend = po.backend});
  const auto expect = serial(ref);

  tcu::DevicePool<T> pool(
      po.p, {.m = po.m, .latency = po.latency, .backend = po.backend});
  tcu::PoolExecutor<T> exec(pool);
  const auto got = pooled(exec);
  const bool outputs_match = got == expect;

  std::uint64_t pool_busy = 0;
  for (std::size_t u = 0; u < pool.size(); ++u) {
    pool_busy += pool.unit(u).wall_ns();
  }
  const auto serial_time = static_cast<double>(ref.counters().time());
  // micro's SIMD rungs serve float and double; other T run its blocked loop.
  const std::string_view backend = ref.backend_name();
  std::cout << "  backend              : " << backend;
  if (backend == "micro") {
    constexpr bool simd_type =
        std::is_same_v<T, float> || std::is_same_v<T, double>;
    std::cout << " (simd " << (simd_type ? tcu::micro_simd_name() : "none")
              << ")";
  }
  std::cout << "\n"
            << "  serial model time    : " << ref.counters().time()
            << "  (wall " << ref.wall_ns() << " ns)\n"
            << "  pool makespan        : " << pool.makespan()
            << ", sim speedup "
            << tcu::util::fmt(
                   serial_time / static_cast<double>(pool.makespan()), 2)
            << "  (backend busy, Σ units " << pool_busy << " ns)\n"
            << "  outputs bit-identical: "
            << (outputs_match ? "yes" : "NO") << "\n";
  return outputs_match ? 0 : 1;
}

int run_pool(int argc, char** argv) {
  PoolOptions po;
  int i = 2;
  for (; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      po.workload = value;
      continue;
    }
    if (flag == "--backend") {
      try {
        po.backend = tcu::parse_backend_kind(value);
      } catch (const std::invalid_argument&) {
        std::cerr << "tcu_cli pool: --backend expects sim|micro|blas, got '"
                  << value << "'\n";
        usage();
      }
      if (!tcu::backend_available(po.backend)) {
        std::cerr << "tcu_cli pool: backend '" << value
                  << "' is not available in this build (blas needs "
                     "-DTCU_BLAS=ON)\n";
        return 2;
      }
      continue;
    }
    const auto num = parse_num(flag, value);
    if (flag == "--p") {
      po.p = num;
    } else if (flag == "--m") {
      po.m = num;
    } else if (flag == "--l") {
      po.latency = num;
    } else if (flag == "--size") {
      po.size = num;
    } else if (flag == "--seed") {
      po.seed = num;
    } else {
      usage();
    }
  }
  if (i < argc) {
    std::cerr << "tcu_cli pool: missing value for '" << argv[i] << "'\n";
    usage();
  }

  // Round dimensions up so the strip/panel decompositions are exact.
  const std::size_t s = tcu::exact_sqrt(po.m);
  const std::size_t d = ((po.size + s - 1) / s) * s;

  std::cout << "pool scenario: workload=" << po.workload << " backend="
            << tcu::backend_kind_name(tcu::resolve_backend_kind(po.backend))
            << " p=" << po.p << " m=" << po.m << " l=" << po.latency
            << " size=" << d << " seed=" << po.seed << "\n";

  if (po.workload == "closure") {
    const auto adj = tcu::graph::random_digraph(d, 0.05, po.seed);
    return pool_drive<tcu::graph::Vert>(
        po,
        [&](Device<tcu::graph::Vert>& dev) {
          auto c = adj;
          tcu::graph::closure_tcu(dev, c.view());
          return c;
        },
        [&](tcu::PoolExecutor<tcu::graph::Vert>& exec) {
          auto c = adj;
          tcu::graph::closure_tcu(exec, c.view());
          return c;
        });
  }
  if (po.workload == "gauss") {
    // Diagonally dominant input: the forward elimination stays benign.
    tcu::util::Xoshiro256 rng(po.seed);
    Matrix<double> x(d, d, 0.0);
    for (std::size_t r = 0; r < d; ++r) {
      double row = 0;
      for (std::size_t j = 0; j < d; ++j) {
        x(r, j) = rng.uniform(-1, 1);
        row += std::abs(x(r, j));
      }
      x(r, r) = row + 1.0;
    }
    return pool_drive<double>(
        po,
        [&](Device<double>& dev) {
          auto c = x;
          tcu::linalg::ge_forward_tcu(dev, c.view());
          return c;
        },
        [&](tcu::PoolExecutor<double>& exec) {
          auto c = x;
          tcu::linalg::ge_forward_tcu_pool(exec, c.view());
          return c;
        });
  }
  if (po.workload == "dft") {
    tcu::util::Xoshiro256 rng(po.seed);
    Matrix<Complex> batch(4, d);
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      for (std::size_t j = 0; j < d; ++j) {
        batch(r, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      }
    }
    return pool_drive<Complex>(
        po,
        [&](Device<Complex>& dev) {
          auto b = batch;
          tcu::dft::dft_batch_tcu(dev, b.view(), {.affinity = true});
          return b;
        },
        [&](tcu::PoolExecutor<Complex>& exec) {
          auto b = batch;
          tcu::dft::dft_batch_tcu(exec, b.view(), {.affinity = true});
          return b;
        });
  }
  if (po.workload == "mlp") {
    tcu::util::Xoshiro256 rng(po.seed);
    tcu::nn::Mlp mlp;
    for (int l = 0; l < 3; ++l) {
      auto w = rand_mat(d, d, po.seed + 10 + l);
      std::vector<double> bias(d);
      for (auto& v : bias) v = rng.uniform(-1, 1);
      mlp.add_layer(tcu::nn::DenseLayer(w, bias));
    }
    const auto batch = rand_mat(d, d, po.seed + 20);
    return pool_drive<double>(
        po,
        [&](Device<double>& dev) { return mlp.forward(dev, batch.view()); },
        [&](tcu::PoolExecutor<double>& exec) {
          return mlp.forward(exec, batch.view());
        });
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "fault") return run_fault(argc, argv);
  if (command == "pool") return run_pool(argc, argv);
  Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const auto value = std::strtoull(argv[i + 1], nullptr, 10);
    if (flag == "--m") {
      o.m = value;
    } else if (flag == "--l") {
      o.latency = value;
    } else if (flag == "--size") {
      o.size = value;
    } else if (flag == "--seed") {
      o.seed = value;
    } else {
      usage();
    }
  }

  const std::map<std::string, Row (*)(const Options&)> commands{
      {"matmul", run_matmul},       {"strassen", run_strassen},
      {"gauss", run_gauss},         {"closure", run_closure},
      {"apsd", run_apsd},           {"dft", run_dft},
      {"stencil", run_stencil},     {"intmul", run_intmul},
      {"karatsuba", run_karatsuba}, {"polyeval", run_polyeval},
      {"scan", run_scan},           {"triangles", run_triangles},
  };

  std::vector<Row> rows;
  try {
    if (command == "all") {
      for (const auto& [name, fn] : commands) rows.push_back(fn(o));
    } else if (auto it = commands.find(command); it != commands.end()) {
      rows.push_back(it->second(o));
    } else {
      usage();
    }
  } catch (const std::exception& err) {
    std::cerr << "tcu_cli: " << err.what() << "\n";
    return 1;
  }

  std::cout << "(m = " << o.m << ", l = " << o.latency
            << ", size = " << o.size << ", seed = " << o.seed << ")\n\n";
  tcu::util::Table table({"algorithm", "model time", "paper bound", "ratio",
                          "RAM baseline", "speedup"});
  for (const auto& row : rows) {
    table.add_row({row.name, tcu::util::fmt(row.measured, 0),
                   tcu::util::fmt(row.predicted, 0),
                   tcu::util::fmt(row.measured / row.predicted, 2),
                   tcu::util::fmt(row.baseline, 0),
                   tcu::util::fmt(row.baseline / row.measured, 2)});
  }
  table.print(std::cout);
  return 0;
}
