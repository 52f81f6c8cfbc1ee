// Graph analytics on the TCU: reachability (transitive closure, §4.3) and
// shortest distances (Seidel APSD, §4.4) on random graphs, with model-cost
// comparison against the RAM baselines.
//
//   $ ./graph_analytics [n]

#include <cstdlib>
#include <iostream>

#include "core/costs.hpp"
#include "graph/apsd.hpp"
#include "graph/closure.hpp"
#include "graph/generators.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using tcu::util::fmt;
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 128;
  std::cout << "=== TCU graph analytics (n = " << n << ") ===\n\n";

  // --- transitive closure of a sparse random digraph -------------------
  auto digraph = tcu::graph::random_digraph(n, 4.0 / static_cast<double>(n),
                                            2024);
  std::size_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) edges += digraph(i, j) != 0;
  }
  tcu::Device<tcu::graph::Vert> dev({.m = 256, .latency = 64});
  auto closed = digraph;
  tcu::graph::closure_tcu(dev, closed.view());
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) reachable += closed(i, j) != 0;
  }
  tcu::Counters ram;
  auto closed_ram = digraph;
  tcu::graph::closure_naive(closed_ram.view(), ram);

  std::cout << "transitive closure: " << edges << " edges -> " << reachable
            << " reachable pairs\n";
  tcu::util::Table t1({"algorithm", "model time", "predicted (Thm 5)"});
  t1.add_row({"closure_tcu", fmt(dev.counters().time()),
              fmt(tcu::costs::thm5_closure(static_cast<double>(n), 256, 64),
                  0)});
  t1.add_row({"closure_naive (RAM)", fmt(ram.time()), "-"});
  t1.print(std::cout);
  std::cout << "results agree: " << (closed == closed_ram ? "yes" : "NO")
            << "\n\n";

  // --- all pairs shortest distances on a connected graph ---------------
  auto graph = tcu::graph::random_connected_graph(
      n, 2.0 / static_cast<double>(n), 2025);
  tcu::Device<std::int64_t> dev2({.m = 256, .latency = 64});
  auto dist = tcu::graph::apsd_seidel(dev2, graph.view());
  tcu::Counters bfs;
  auto dist_bfs = tcu::graph::apsd_bfs(graph.view(), bfs);

  std::int64_t diameter = 0;
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      diameter = std::max(diameter, dist(i, j));
      total += static_cast<double>(dist(i, j));
    }
  }
  std::cout << "APSD: diameter " << diameter << ", mean distance "
            << total / static_cast<double>(n) / static_cast<double>(n)
            << "\n";
  tcu::util::Table t2({"algorithm", "model time", "predicted (Thm 6)"});
  t2.add_row({"apsd_seidel (TCU)", fmt(dev2.counters().time()),
              fmt(tcu::costs::thm6_apsd(static_cast<double>(n), 256, 64),
                  0)});
  t2.add_row({"apsd_bfs (RAM)", fmt(bfs.time()), "-"});
  t2.print(std::cout);
  std::cout << "results agree: " << (dist == dist_bfs ? "yes" : "NO")
            << "\n";
  return 0;
}
