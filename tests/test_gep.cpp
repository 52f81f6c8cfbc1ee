// The GEP schedule's task graph (linalg/gep.hpp), shared by transitive
// closure and Gaussian elimination on both executors. A recording
// executor runs the schedule with no-op kernels and records each task's
// kind, indices, spec and charge. Two checks pin the graph:
//   * golden after-lists: at t = 4 and t = 5, for both ranges, every
//     task's predecessors equal the graphs the separate pooled closure
//     and GE schedules submitted before they became this one schedule;
//   * a hazard oracle: for t = 1..6 and both ranges, every two tasks that
//     touch a common block, at least one writing it, are ordered by the
//     transitive closure of the `after` edges.

#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "core/pool.hpp"
#include "linalg/gep.hpp"

namespace {

using tcu::Device;
using tcu::RoundReport;
using tcu::TaskSpec;
using tcu::TaskTicket;
using tcu::linalg::GepCosts;
using tcu::linalg::GepRange;

constexpr GepCosts kCosts{.a = 3, .b = 5, .c = 7};

std::uint64_t d_cost(std::size_t k) { return 11 + k; }
std::uint64_t d_key(std::size_t k, std::size_t j) { return 1000 * (k + 1) + j; }

struct Recorded {
  char kind = '?';
  std::size_t k = 0;
  std::size_t x = 0;  ///< j for B and D, i for C, k for A
  TaskSpec spec;
  std::uint64_t charged = 0;  ///< cpu_ops the task charged its unit
};

/// Runs every task at once on its own device, like an inline executor,
/// and records it. Serial n is task n - 1.
class RecordingExecutor {
 public:
  using Task = std::function<void(Device<double>&)>;

  TaskTicket submit(TaskSpec spec, Task task) {
    tasks.push_back({.spec = std::move(spec)});
    const std::uint64_t before = dev_.counters().cpu_ops;
    task(dev_);
    tasks.back().charged = dev_.counters().cpu_ops - before;
    return {.serial = tasks.size()};
  }

  RoundReport join() {
    ++joins;
    return {};
  }

  /// Called by the no-op kernels: names the task running now.
  void ran(char kind, std::size_t k, std::size_t x) {
    tasks.back().kind = kind;
    tasks.back().k = k;
    tasks.back().x = x;
  }

  std::vector<Recorded> tasks;
  int joins = 0;

 private:
  Device<double> dev_{{.m = 16, .latency = 3}};
};

std::vector<Recorded> record(std::size_t t, GepRange range) {
  RecordingExecutor exec;
  tcu::linalg::gep_schedule(
      exec, t, range, kCosts, [&](std::size_t k) { exec.ran('A', k, k); },
      [&](std::size_t k, std::size_t j) { exec.ran('B', k, j); },
      [&](std::size_t k, std::size_t i) { exec.ran('C', k, i); },
      [](std::size_t k, std::size_t j) {
        return TaskSpec{.cost = d_cost(k), .chain = {d_key(k, j)}};
      },
      [&](Device<double>&, std::size_t k, std::size_t j) {
        exec.ran('D', k, j);
      });
  EXPECT_EQ(exec.joins, 1);
  return exec.tasks;
}

std::string label(char kind, std::size_t k, std::size_t x) {
  std::string out(1, kind);
  out += '(';
  out += std::to_string(k);
  if (kind != 'A') {
    out += ',';
    out += std::to_string(x);
  }
  out += ')';
  return out;
}

std::string label(const Recorded& r) { return label(r.kind, r.k, r.x); }

/// One line per task in submit order: its label, then its predecessors'.
std::string format_graph(const std::vector<Recorded>& tasks) {
  std::string out;
  for (const Recorded& r : tasks) {
    out += label(r);
    if (!r.spec.after.empty()) out += " <-";
    for (const TaskTicket& dep : r.spec.after) {
      out += ' ';
      out += label(tasks.at(dep.serial - 1));
    }
    out += "\n";
  }
  return out;
}

bool updates(GepRange range, std::size_t k, std::size_t x) {
  return x != k && (range == GepRange::kEveryOffPivot || x > k);
}

const char* range_name(GepRange range) {
  return range == GepRange::kEveryOffPivot ? "closure" : "GE";
}

// Captured from the separate pooled closure and GE schedules that this
// one schedule replaced, run on a recording executor.

const char* const kClosureT4 =
    R"(A(0)
B(0,1) <- A(0)
B(0,2) <- A(0)
B(0,3) <- A(0)
C(0,1) <- A(0)
C(0,2) <- A(0)
C(0,3) <- A(0)
D(0,1) <- B(0,1) C(0,1) C(0,2) C(0,3)
D(0,2) <- B(0,2) C(0,1) C(0,2) C(0,3)
D(0,3) <- B(0,3) C(0,1) C(0,2) C(0,3)
A(1) <- D(0,1)
B(1,0) <- A(1) C(0,1) D(0,1) D(0,2) D(0,3)
B(1,2) <- A(1) D(0,2)
B(1,3) <- A(1) D(0,3)
C(1,0) <- A(1) B(0,1)
C(1,2) <- A(1)
C(1,3) <- A(1)
D(1,0) <- B(1,0) C(1,0) C(1,2) C(1,3)
D(1,2) <- B(1,2) C(1,0) C(1,2) C(1,3)
D(1,3) <- B(1,3) C(1,0) C(1,2) C(1,3)
A(2) <- D(1,2)
B(2,0) <- A(2) D(1,0)
B(2,1) <- A(2) C(1,2) D(1,0) D(1,2) D(1,3)
B(2,3) <- A(2) D(1,3)
C(2,0) <- A(2)
C(2,1) <- A(2) B(1,2)
C(2,3) <- A(2)
D(2,0) <- B(2,0) C(2,0) C(2,1) C(2,3)
D(2,1) <- B(2,1) C(2,0) C(2,1) C(2,3)
D(2,3) <- B(2,3) C(2,0) C(2,1) C(2,3)
A(3) <- D(2,3)
B(3,0) <- A(3) D(2,0)
B(3,1) <- A(3) D(2,1)
B(3,2) <- A(3) C(2,3) D(2,0) D(2,1) D(2,3)
C(3,0) <- A(3)
C(3,1) <- A(3)
C(3,2) <- A(3) B(2,3)
D(3,0) <- B(3,0) C(3,0) C(3,1) C(3,2)
D(3,1) <- B(3,1) C(3,0) C(3,1) C(3,2)
D(3,2) <- B(3,2) C(3,0) C(3,1) C(3,2)
)";

const char* const kClosureT5 =
    R"(A(0)
B(0,1) <- A(0)
B(0,2) <- A(0)
B(0,3) <- A(0)
B(0,4) <- A(0)
C(0,1) <- A(0)
C(0,2) <- A(0)
C(0,3) <- A(0)
C(0,4) <- A(0)
D(0,1) <- B(0,1) C(0,1) C(0,2) C(0,3) C(0,4)
D(0,2) <- B(0,2) C(0,1) C(0,2) C(0,3) C(0,4)
D(0,3) <- B(0,3) C(0,1) C(0,2) C(0,3) C(0,4)
D(0,4) <- B(0,4) C(0,1) C(0,2) C(0,3) C(0,4)
A(1) <- D(0,1)
B(1,0) <- A(1) C(0,1) D(0,1) D(0,2) D(0,3) D(0,4)
B(1,2) <- A(1) D(0,2)
B(1,3) <- A(1) D(0,3)
B(1,4) <- A(1) D(0,4)
C(1,0) <- A(1) B(0,1)
C(1,2) <- A(1)
C(1,3) <- A(1)
C(1,4) <- A(1)
D(1,0) <- B(1,0) C(1,0) C(1,2) C(1,3) C(1,4)
D(1,2) <- B(1,2) C(1,0) C(1,2) C(1,3) C(1,4)
D(1,3) <- B(1,3) C(1,0) C(1,2) C(1,3) C(1,4)
D(1,4) <- B(1,4) C(1,0) C(1,2) C(1,3) C(1,4)
A(2) <- D(1,2)
B(2,0) <- A(2) D(1,0)
B(2,1) <- A(2) C(1,2) D(1,0) D(1,2) D(1,3) D(1,4)
B(2,3) <- A(2) D(1,3)
B(2,4) <- A(2) D(1,4)
C(2,0) <- A(2)
C(2,1) <- A(2) B(1,2)
C(2,3) <- A(2)
C(2,4) <- A(2)
D(2,0) <- B(2,0) C(2,0) C(2,1) C(2,3) C(2,4)
D(2,1) <- B(2,1) C(2,0) C(2,1) C(2,3) C(2,4)
D(2,3) <- B(2,3) C(2,0) C(2,1) C(2,3) C(2,4)
D(2,4) <- B(2,4) C(2,0) C(2,1) C(2,3) C(2,4)
A(3) <- D(2,3)
B(3,0) <- A(3) D(2,0)
B(3,1) <- A(3) D(2,1)
B(3,2) <- A(3) C(2,3) D(2,0) D(2,1) D(2,3) D(2,4)
B(3,4) <- A(3) D(2,4)
C(3,0) <- A(3)
C(3,1) <- A(3)
C(3,2) <- A(3) B(2,3)
C(3,4) <- A(3)
D(3,0) <- B(3,0) C(3,0) C(3,1) C(3,2) C(3,4)
D(3,1) <- B(3,1) C(3,0) C(3,1) C(3,2) C(3,4)
D(3,2) <- B(3,2) C(3,0) C(3,1) C(3,2) C(3,4)
D(3,4) <- B(3,4) C(3,0) C(3,1) C(3,2) C(3,4)
A(4) <- D(3,4)
B(4,0) <- A(4) D(3,0)
B(4,1) <- A(4) D(3,1)
B(4,2) <- A(4) D(3,2)
B(4,3) <- A(4) C(3,4) D(3,0) D(3,1) D(3,2) D(3,4)
C(4,0) <- A(4)
C(4,1) <- A(4)
C(4,2) <- A(4)
C(4,3) <- A(4) B(3,4)
D(4,0) <- B(4,0) C(4,0) C(4,1) C(4,2) C(4,3)
D(4,1) <- B(4,1) C(4,0) C(4,1) C(4,2) C(4,3)
D(4,2) <- B(4,2) C(4,0) C(4,1) C(4,2) C(4,3)
D(4,3) <- B(4,3) C(4,0) C(4,1) C(4,2) C(4,3)
)";

const char* const kGeT4 =
    R"(A(0)
B(0,1) <- A(0)
B(0,2) <- A(0)
B(0,3) <- A(0)
C(0,1) <- A(0)
C(0,2) <- A(0)
C(0,3) <- A(0)
D(0,1) <- B(0,1) C(0,1) C(0,2) C(0,3)
D(0,2) <- B(0,2) C(0,1) C(0,2) C(0,3)
D(0,3) <- B(0,3) C(0,1) C(0,2) C(0,3)
A(1) <- D(0,1)
B(1,2) <- A(1) D(0,2)
B(1,3) <- A(1) D(0,3)
C(1,2) <- A(1)
C(1,3) <- A(1)
D(1,2) <- B(1,2) C(1,2) C(1,3)
D(1,3) <- B(1,3) C(1,2) C(1,3)
A(2) <- D(1,2)
B(2,3) <- A(2) D(1,3)
C(2,3) <- A(2)
D(2,3) <- B(2,3) C(2,3)
A(3) <- D(2,3)
)";

const char* const kGeT5 =
    R"(A(0)
B(0,1) <- A(0)
B(0,2) <- A(0)
B(0,3) <- A(0)
B(0,4) <- A(0)
C(0,1) <- A(0)
C(0,2) <- A(0)
C(0,3) <- A(0)
C(0,4) <- A(0)
D(0,1) <- B(0,1) C(0,1) C(0,2) C(0,3) C(0,4)
D(0,2) <- B(0,2) C(0,1) C(0,2) C(0,3) C(0,4)
D(0,3) <- B(0,3) C(0,1) C(0,2) C(0,3) C(0,4)
D(0,4) <- B(0,4) C(0,1) C(0,2) C(0,3) C(0,4)
A(1) <- D(0,1)
B(1,2) <- A(1) D(0,2)
B(1,3) <- A(1) D(0,3)
B(1,4) <- A(1) D(0,4)
C(1,2) <- A(1)
C(1,3) <- A(1)
C(1,4) <- A(1)
D(1,2) <- B(1,2) C(1,2) C(1,3) C(1,4)
D(1,3) <- B(1,3) C(1,2) C(1,3) C(1,4)
D(1,4) <- B(1,4) C(1,2) C(1,3) C(1,4)
A(2) <- D(1,2)
B(2,3) <- A(2) D(1,3)
B(2,4) <- A(2) D(1,4)
C(2,3) <- A(2)
C(2,4) <- A(2)
D(2,3) <- B(2,3) C(2,3) C(2,4)
D(2,4) <- B(2,4) C(2,3) C(2,4)
A(3) <- D(2,3)
B(3,4) <- A(3) D(2,4)
C(3,4) <- A(3)
D(3,4) <- B(3,4) C(3,4)
A(4) <- D(3,4)
)";

TEST(GepGraph, GoldenAfterListsMatchTheReplacedSchedules) {
  EXPECT_EQ(format_graph(record(4, GepRange::kEveryOffPivot)), kClosureT4);
  EXPECT_EQ(format_graph(record(5, GepRange::kEveryOffPivot)), kClosureT5);
  EXPECT_EQ(format_graph(record(4, GepRange::kAfterPivot)), kGeT4);
  EXPECT_EQ(format_graph(record(5, GepRange::kAfterPivot)), kGeT5);
}

TEST(GepGraph, EveryTaskOnceWithItsDeclaredSpecAndCharge) {
  for (const GepRange range : {GepRange::kEveryOffPivot, GepRange::kAfterPivot}) {
    for (std::size_t t = 1; t <= 6; ++t) {
      const std::string what =
          std::string(range_name(range)) + " t=" + std::to_string(t);
      std::set<std::string> expected;
      for (std::size_t k = 0; k < t; ++k) {
        expected.insert(label('A', k, k));
        for (std::size_t x = 0; x < t; ++x) {
          if (!updates(range, k, x)) continue;
          for (const char kind : {'B', 'C', 'D'}) {
            expected.insert(label(kind, k, x));
          }
        }
      }
      const auto tasks = record(t, range);
      std::set<std::string> seen;
      for (std::size_t n = 0; n < tasks.size(); ++n) {
        const Recorded& r = tasks[n];
        EXPECT_TRUE(seen.insert(label(r)).second) << what << " " << label(r);
        for (const TaskTicket& dep : r.spec.after) {
          EXPECT_TRUE(dep.serial >= 1 && dep.serial <= n)
              << what << " " << label(r) << " names serial " << dep.serial;
        }
        if (r.kind == 'D') {
          EXPECT_FALSE(r.spec.cpu) << what;
          EXPECT_EQ(r.spec.cost, d_cost(r.k)) << what;
          EXPECT_EQ(r.spec.chain, std::vector<std::uint64_t>{d_key(r.k, r.x)})
              << what;
          EXPECT_EQ(r.charged, 0u) << what;
        } else {
          const std::uint64_t cost =
              r.kind == 'A' ? kCosts.a : r.kind == 'B' ? kCosts.b : kCosts.c;
          EXPECT_TRUE(r.spec.cpu) << what;
          EXPECT_TRUE(r.spec.chain.empty()) << what;
          EXPECT_EQ(r.spec.cost, cost) << what << " " << label(r);
          EXPECT_EQ(r.charged, cost) << what << " " << label(r);
        }
      }
      EXPECT_EQ(seen, expected) << what;
    }
  }
}

TEST(GepGraph, EveryConflictingPairIsOrdered) {
  constexpr std::size_t kMaxTasks = 128;
  for (const GepRange range : {GepRange::kEveryOffPivot, GepRange::kAfterPivot}) {
    const bool closure = range == GepRange::kEveryOffPivot;
    for (std::size_t t = 1; t <= 6; ++t) {
      const auto tasks = record(t, range);
      ASSERT_LE(tasks.size(), kMaxTasks);
      // Resources: block (i, j) is i * t + j; GE's X'_j strip is t*t + j.
      const auto blk = [t](std::size_t i, std::size_t j) { return i * t + j; };
      const std::size_t strip = t * t;
      std::vector<std::set<std::size_t>> reads(tasks.size()),
          writes(tasks.size());
      for (std::size_t n = 0; n < tasks.size(); ++n) {
        const std::size_t k = tasks[n].k;
        const std::size_t x = tasks[n].x;
        switch (tasks[n].kind) {
          case 'A':
            writes[n] = {blk(k, k)};
            break;
          case 'B':
            writes[n] = {blk(k, x)};
            reads[n] = {blk(k, k)};
            if (!closure) writes[n].insert(strip + x);
            break;
          case 'C':
            writes[n] = {blk(x, k)};
            reads[n] = {blk(k, k)};
            break;
          case 'D':
            for (std::size_t i = 0; i < t; ++i) {
              if (!updates(range, k, i)) continue;
              reads[n].insert(blk(i, k));
              writes[n].insert(blk(i, x));
            }
            reads[n].insert(closure ? blk(k, x) : strip + x);
            break;
        }
      }
      // ancestors[n]: every task the after edges order before task n.
      std::vector<std::bitset<kMaxTasks>> ancestors(tasks.size());
      for (std::size_t n = 0; n < tasks.size(); ++n) {
        for (const TaskTicket& dep : tasks[n].spec.after) {
          ASSERT_TRUE(dep.serial >= 1 && dep.serial <= n);
          ancestors[n] |= ancestors[dep.serial - 1];
          ancestors[n].set(dep.serial - 1);
        }
      }
      const auto meets = [](const std::set<std::size_t>& a,
                            const std::set<std::size_t>& b) {
        for (const std::size_t r : a) {
          if (b.count(r)) return true;
        }
        return false;
      };
      for (std::size_t late = 0; late < tasks.size(); ++late) {
        for (std::size_t early = 0; early < late; ++early) {
          const bool conflict = meets(writes[early], writes[late]) ||
                                meets(writes[early], reads[late]) ||
                                meets(reads[early], writes[late]);
          if (conflict) {
            EXPECT_TRUE(ancestors[late].test(early))
                << range_name(range) << " t=" << t << ": "
                << label(tasks[late]) << " is not ordered after "
                << label(tasks[early]);
          }
        }
      }
    }
  }
}

}  // namespace
