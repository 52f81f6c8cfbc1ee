#pragma once
// Multiple parallel tensor units.
//
// Section 3.1 calls the single-unit assumption the model's main
// simplification — real boards carry hundreds of tensor cores — and §6
// asks how parallel units change algorithm design. `DevicePool<T>` is the
// natural extension: p independent (m, l) units sharing the CPU. A
// parallel algorithm assigns whole tensor calls to units; the pool's
// running time (makespan) is the shared CPU time plus the *maximum*
// tensor time over units, so perfectly balanced work divides the tensor
// term by p while the latency of each call stays on its unit.
//
// `PoolExecutor<T>` turns the simulated pool into a real parallel
// runtime: one OS worker thread per unit, each draining its own FIFO
// work queue. Scheduling stays deterministic — tasks are dealt on the
// *submitting* thread by greedy least-loaded over the projected
// simulated tensor time (actual counters plus the declared cost of
// everything already queued), with ties broken toward the lowest unit
// index, exactly like the serial `least_loaded()` loop. Because every
// task runs on the one thread that owns its unit, per-unit `Counters`
// are written race-free and their totals are independent of thread
// interleaving; `join()` is the barrier at which the merged view
// (`aggregate()`, `makespan()`) becomes meaningful again.
//
// `InlineExecutor<T>` is the same submit/join interface on one device,
// running every task on the caller's thread as it is submitted: a
// schedule written against the interface runs serially through it.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/device.hpp"

namespace tcu {

template <typename T>
class DevicePool {
 public:
  DevicePool(std::size_t units, typename Device<T>::Config cfg) {
    if (units == 0) throw std::invalid_argument("DevicePool: units >= 1");
    units_.reserve(units);
    for (std::size_t i = 0; i < units; ++i) {
      auto unit_cfg = cfg;
      unit_cfg.name = cfg.name + "#" + std::to_string(i);
      units_.emplace_back(std::move(unit_cfg));
    }
  }

  std::size_t size() const { return units_.size(); }
  Device<T>& unit(std::size_t i) { return units_.at(i); }
  const Device<T>& unit(std::size_t i) const { return units_.at(i); }

  /// Unit with the smallest tensor time so far (greedy list scheduling).
  Device<T>& least_loaded() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < units_.size(); ++i) {
      if (units_[i].counters().tensor_time <
          units_[best].counters().tensor_time) {
        best = i;
      }
    }
    return units_[best];
  }

  /// Shared (sequential) CPU work.
  void charge_cpu(std::uint64_t ops) { cpu_.charge_cpu(ops); }
  const Counters& cpu() const { return cpu_; }

  /// Model running time: CPU plus the busiest unit.
  std::uint64_t makespan() const {
    std::uint64_t worst = 0;
    for (const auto& u : units_) {
      worst = std::max(worst,
                       u.counters().tensor_time + u.counters().cpu_ops);
    }
    return worst + cpu_.cpu_ops;
  }

  /// Aggregate tensor time across units (the sequential-equivalent work).
  std::uint64_t total_tensor_time() const {
    std::uint64_t total = 0;
    for (const auto& u : units_) total += u.counters().tensor_time;
    return total;
  }

  /// Merged counters: shared CPU plus every unit, summed in unit order.
  /// Deterministic because each unit's counters are charged by exactly one
  /// worker (or the caller) and addition is per-field.
  Counters aggregate() const {
    Counters total = cpu_;
    for (const auto& u : units_) total += u.counters();
    return total;
  }

  void reset() {
    for (auto& u : units_) u.reset();
    cpu_.reset();
  }

 private:
  std::vector<Device<T>> units_;
  Counters cpu_;
};

/// Receipt for a submitted task: its submit serial and the lane the dealer
/// chose. Pass it in a later task's `TaskSpec::after` to order that task
/// after this one. Serials start at 1, so a default-constructed ticket is
/// the null ticket, which no submit accepts.
struct TaskTicket {
  std::uint64_t serial = 0;
  std::size_t unit = 0;
};

/// What the dealer needs to know about one task:
///   * `cost` — the exact simulated time the task will charge its unit
///     (tensor time including one load latency per chain entry, or the
///     cpu_ops of a CPU task); exact costs keep the dealing identical to a
///     serial execute-then-pick loop;
///   * `chain` — in call order, the resident-operand key of every tensor
///     call the task will issue through `gemm_resident` (a 0 entry marks
///     an untagged call). An empty chain declares untagged work: its calls
///     displace the unit's whole resident set;
///   * `after` — tickets of the tasks that must retire before this one may
///     start. Each must come from a submit on the same executor since its
///     last `join()`; the join already ordered anything older;
///   * `cpu` — the task issues no tensor calls, so the unit's resident set
///     is left alone. A CPU task declares no chain.
struct TaskSpec {
  std::uint64_t cost = 0;
  std::vector<std::uint64_t> chain{};
  std::vector<TaskTicket> after{};
  bool cpu = false;
};

/// What one `join()` round survived. Every field is deterministic given
/// the submitted schedule and the fault plan: faults fire at seeded
/// per-unit call indices, retry and redeal replay the same deterministic
/// dealer in original submit order, so two runs with the same
/// (seed, plan) produce identical reports — and identical outputs,
/// because tasks are idempotent strip writes re-issued from scratch.
struct RoundReport {
  std::uint64_t transient_faults = 0;  ///< transient-fault throws observed
  std::uint64_t permanent_faults = 0;  ///< permanent-fault throws observed
  std::uint64_t retried = 0;           ///< same-lane re-executions
  std::uint64_t redealt = 0;           ///< tasks redealt at the barrier
  std::uint64_t drained = 0;  ///< tasks funneled off dead lanes without running
  std::uint64_t deferred = 0;  ///< dep-waits abandoned to the barrier (recovery)
  std::uint64_t spawn_failures = 0;  ///< workers that never spawned (ctor)
  std::vector<std::size_t> quarantined;  ///< units newly quarantined, ascending
  std::size_t healthy_units = 0;  ///< lanes still accepting work afterwards

  bool faulted() const { return transient_faults != 0 || permanent_faults != 0; }
};

/// The submit contract every executor enforces before it issues a
/// serial: throws std::invalid_argument for a CPU task with a chain, or
/// for a dependency ticket outside the current round — the null ticket,
/// one issued before `round_base` (the last join), or a serial not yet
/// issued (a forward dep could never retire).
inline void check_submit(const TaskSpec& spec, std::uint64_t round_base,
                         std::uint64_t next_serial) {
  if (spec.cpu && !spec.chain.empty()) {
    throw std::invalid_argument(
        "submit: a cpu task issues no tensor calls and declares no chain");
  }
  for (const TaskTicket& dep : spec.after) {
    if (dep.serial < round_base || dep.serial >= next_serial) {
      throw std::invalid_argument(
          "submit: dependency ticket is null, from before the last join, or "
          "not yet issued");
    }
  }
}

/// Worker-thread runtime over a DevicePool: one thread and one FIFO queue
/// per unit. Construction spawns the workers; destruction drains and joins
/// them. `submit(TaskSpec, Task)` is the one way in: it deals the task to
/// the unit with the smallest projected completion and must be called
/// from a single thread (the scheduling decision sequence is the
/// schedule). Do not touch the pool's units directly between the first
/// `submit` and the matching `join`. Worker exceptions are only surfaced
/// by `join()`; destroying the executor without a final join discards any
/// recorded error (destructors cannot throw).
///
/// The executor is *self-healing* against the fault taxonomy of
/// core/observer.hpp (injected by src/fault/, or raised by a real
/// backend): a `TransientFault` fails one tensor call with no side
/// effects, so the worker re-runs the task on the same lane (tasks are
/// idempotent: every pooled workload's tasks overwrite their output from
/// scratch); once the lane budget is spent the task is handed back to
/// `join()`, which redeals the failures — in original submit order,
/// through the normal deterministic dealer — to healthy lanes. A
/// `PermanentUnitFault` quarantines the unit: its worker funnels the
/// remaining queue back for redealing, its prediction mirror is dropped,
/// `evict_all` re-anchors its residency, and the pool keeps running at
/// p − f. `join()` returns a `RoundReport` of what it survived and
/// rethrows only when recovery is exhausted (attempt budget spent, or no
/// healthy unit remains) — non-fault exceptions keep the historical
/// first-error-rethrow contract. Tasks that issue multiple in-place
/// accumulating calls (graph/closure.cpp) are *not* idempotent and must
/// not run under an active fault plan.
///
/// The executor is *persistent*: `join()` is a barrier, not the end of its
/// life. After every join the greedy projections (and the per-lane
/// resident-tile predictions) are reseeded from the units' live counters,
/// so a caller-owned executor dealing work, joining, and dealing again is
/// bit-identical to constructing a fresh executor per round — one
/// executor amortizes thread startup across an entire Mlp forward, a batch
/// of matmuls, or a recursion tree.
///
/// Dealing is chain-aware: a task's `TaskSpec::chain` lists the resident
/// keys its tensor calls will touch. The dealer keeps, per lane, a mirror
/// of the unit's TileCache advanced through everything already queued,
/// replays the chain against each mirror to count predicted hits, and
/// charges the task `cost - hits * l` on each lane — so work lands where
/// its tiles already live and every predicted saving is genuinely
/// realized (Device::gemm_resident runs the identical LRU transitions,
/// elides the charges, and counts the hits). A task with an empty chain
/// gets no credit anywhere, so it goes to the least-projected lane exactly
/// like the serial `least_loaded()` loop.
template <typename T>
class PoolExecutor {
 public:
  /// A task runs on its unit's worker thread and may only touch that unit
  /// (plus any disjoint output it was given).
  using Task = std::function<void(Device<T>&)>;

  /// Recovery budgets, both counting *faulted executions* (a funneled,
  /// never-run task consumes nothing): a transient fault retries the task
  /// in place up to kSameLaneRetries times, then hands it back to the join
  /// barrier for redealing to a healthy lane; a task whose faulted
  /// executions reach kMaxAttempts exhausts recovery and `join()` rethrows
  /// its last fault.
  static constexpr std::size_t kSameLaneRetries = 1;
  static constexpr std::size_t kMaxAttempts = 4;

  explicit PoolExecutor(DevicePool<T>& pool)
      : pool_(pool),
        latency_(pool.unit(0).latency()),
        projected_(pool.size()),
        quarantined_(pool.size(), 0) {
    lane_cache_.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      lane_cache_.emplace_back(pool.unit(i).cache_capacity());
    }
    // Seed projections (and resident-tile predictions) from the live unit
    // state so dealing continues the greedy schedule of any work already
    // on the units.
    reseed();
    lanes_.reserve(pool_.size());
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      lanes_.push_back(std::make_unique<Lane>());
    }
    // Thread spawn can fail mid-loop (EAGAIN under thread pressure, or an
    // injected SpawnFault): degrade to the workers that did start —
    // unspawned units are quarantined before they can be dealt work, and
    // spawn_failures() records the loss — instead of aborting the pool.
    std::size_t spawned = 0;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      try {
        if (auto* inj = pool_.unit(i).fault_injector()) inj->on_spawn();
        lanes_[i]->worker =
            std::thread([this, i] { worker_loop(*lanes_[i], pool_.unit(i)); });
        ++spawned;
      } catch (const fault::SpawnFault&) {
        quarantine_unspawned(i);
      } catch (const std::system_error&) {
        quarantine_unspawned(i);
      }
    }
    if (spawned == 0) {
      shutdown();
      throw fault::SpawnFault("PoolExecutor: no worker thread could be spawned");
    }
  }

  PoolExecutor(const PoolExecutor&) = delete;
  PoolExecutor& operator=(const PoolExecutor&) = delete;

  ~PoolExecutor() { shutdown(); }

  /// The reads a schedule makes of any executor. `unit0` prices tasks
  /// (every unit shares its tile side and costs), `size` is the lane
  /// count, and `charge_cpu` charges work done on the submit thread —
  /// here to the pool's shared CPU.
  const Device<T>& unit0() const { return pool_.unit(0); }
  std::size_t size() const { return pool_.size(); }
  void charge_cpu(std::uint64_t ops) { pool_.charge_cpu(ops); }

  /// Cumulative fault-recovery statistics over this executor's lifetime:
  /// counters summed across rounds, `quarantined` listing every unit ever
  /// quarantined in the order it happened. Read only while quiescent.
  const RoundReport& fault_stats() const { return cumulative_; }

  /// Lanes still accepting work (p minus quarantined units).
  std::size_t healthy_units() const {
    std::size_t n = 0;
    for (const char q : quarantined_) {
      if (!q) ++n;
    }
    return n;
  }

  bool quarantined(std::size_t unit) const {
    return quarantined_.at(unit) != 0;
  }

  /// Worker threads that could not be spawned at construction (the pool
  /// runs degraded on the remainder; nonzero only after spawn faults).
  std::uint64_t spawn_failures() const { return spawn_failures_; }

  /// Deal `task` to the healthy lane with the smallest projected
  /// completion — its projection plus `spec.cost`, less `l` per hit that
  /// `spec.chain` replays against the lane's mirror — lowest index on
  /// ties. The task will not start until every ticket in `spec.after` has
  /// retired into the completion ledger; dependencies gate *when* it
  /// starts, not *where* it lands. Returns the task's ticket, usable in a
  /// later `after` until the next `join()`. Throws what `check_submit`
  /// rejects before any serial is allocated, so a rejected submit leaks
  /// nothing.
  TaskTicket submit(TaskSpec spec, Task task) {
    check_submit(spec, round_base_, next_serial_);
    PendingTask t;
    t.fn = std::move(task);
    t.spec = std::move(spec);
    const std::uint64_t serial = t.serial = next_serial_++;
    return {serial, place(std::move(t))};
  }

  /// Run `fn(share, shares)` once for every share in [0, shares): share 0
  /// on the calling thread and one share on each healthy lane's worker,
  /// so shares = healthy_units() + 1; then `join()`. The shares must be
  /// independent of each other and of the units: each lane's share is
  /// enqueued as a chainless CPU task straight onto its queue, past the
  /// dealer, so no projection, prediction mirror or `Counters` field
  /// moves and the next round is dealt exactly as without the call. Call
  /// it between rounds, like `evict_all`. If a share throws, the first
  /// exception is rethrown after every share has finished.
  template <typename Fn>
  void for_each_lane(Fn&& fn) {
    const std::size_t shares = healthy_units() + 1;
    std::size_t share = 1;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (quarantined_[i]) continue;
      PendingTask t;
      t.fn = [&fn, share, shares](Device<T>&) { fn(share, shares); };
      t.spec.cpu = true;
      t.serial = next_serial_++;
      enqueue(i, std::move(t));
      ++share;
    }
    try {
      fn(std::size_t{0}, shares);
    } catch (...) {
      try {
        join();
      } catch (...) {
      }
      throw;
    }
    join();
  }

  /// Drop every resident tile on every unit *and* every prediction
  /// mirror. Callable only while the executor is quiescent (before the
  /// first submit or after a join), when the submitting thread may touch
  /// the units safely.
  void evict_all() {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      pool_.unit(i).evict_all();
      lane_cache_[i].clear();
    }
  }

  /// Barrier with self-healing: wait until every queue has drained and
  /// every worker is idle, redeal fault-failed tasks to healthy lanes
  /// (repeating until a wave completes without new failures), quarantine
  /// dead units, reseed the projections from the units' live state (so
  /// further submits continue the greedy schedule exactly as a fresh
  /// executor would), and report what the round survived. Rethrows when
  /// recovery is impossible — a non-fault task exception (historical
  /// first-error contract), a task whose attempt budget is exhausted, or
  /// no healthy unit left — leaving the executor reusable: residency
  /// re-anchored at empty, projections reseeded, queues drained.
  RoundReport join() {
    RoundReport report;
    report.spawn_failures = spawn_failures_;
    for (;;) {
      wait_all_idle();
      // Collect what the workers recorded, under each lane's lock (the
      // idle wait ordered their writes before us).
      std::vector<PendingTask> failed;
      std::vector<std::size_t> dirty;
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane& lane = *lanes_[i];
        std::lock_guard<std::mutex> lock(lane.mu);
        report.transient_faults += std::exchange(lane.transients, 0);
        report.permanent_faults += std::exchange(lane.permanents, 0);
        report.retried += std::exchange(lane.retried, 0);
        report.drained += std::exchange(lane.drained, 0);
        report.deferred += std::exchange(lane.deferred, 0);
        for (auto& t : lane.failed) failed.push_back(std::move(t));
        lane.failed.clear();
        if (lane.dead && !quarantined_[i]) {
          // Quarantine: the dealer stops offering this lane work and its
          // prediction mirror is dropped (the worker already re-anchored
          // the dead unit's residency at the empty set).
          quarantined_[i] = 1;
          lane_cache_[i].clear();
          report.quarantined.push_back(i);
          cumulative_.quarantined.push_back(i);
        }
        if (std::exchange(lane.dirty, false) && !quarantined_[i]) {
          dirty.push_back(i);
        }
      }
      // Non-fault task exceptions keep the historical contract: first
      // error wins, the round is lost, join rethrows. A failed task
      // abandoned its declared chain mid-flight, so the residency the
      // dealer promised later tasks never materialized; re-anchor both
      // sides at the empty set so prediction cannot drift from unit state.
      std::exception_ptr error;
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        error = std::exchange(first_error_, nullptr);
      }
      if (error) {
        fail_round(report);
        std::rethrow_exception(error);
      }
      // Re-anchor faulted-but-alive lanes: a fault aborted a declared
      // chain mid-flight (or retried calls the dealer never predicted),
      // so mirror and unit re-meet at the empty set before more dealing.
      for (const std::size_t i : dirty) {
        pool_.unit(i).evict_all();
        lane_cache_[i].clear();
      }
      // Re-arm dependency waiting before any redeal is placed: redealt
      // tasks carry their original deps, and a still-raised
      // recovery flag would make them defer right back to this barrier.
      recovery_flag_.store(false, std::memory_order_release);
      if (failed.empty()) break;
      // Deterministic redeal: original submit order, healthy lanes only,
      // through the normal dealer (so mirrors stay in lock-step).
      std::sort(failed.begin(), failed.end(),
                [](const PendingTask& a, const PendingTask& b) {
                  return a.serial < b.serial;
                });
      if (healthy_units() == 0) {
        std::exception_ptr last = failed.front().last_fault;
        fail_round(report);
        if (last) std::rethrow_exception(last);
        throw fault::PermanentUnitFault(
            "PoolExecutor: all units quarantined");
      }
      // Exhaustion is decided for the whole wave *before* any redeal is
      // placed: a re-enqueued task puts workers back in flight, and
      // fail_round's reseed/evict_all may only touch unit state while
      // every worker is idle — rethrowing mid-loop would also leak the
      // already-redealt tasks past the barrier. All workers are still
      // idle here, so the lowest-serial exhausted task surfaces its
      // fault exactly like the historical error path (the executor
      // stays reusable, queues drained).
      for (const auto& t : failed) {
        if (t.attempts >= kMaxAttempts) {
          std::exception_ptr last = t.last_fault;
          fail_round(report);
          std::rethrow_exception(last);
        }
      }
      for (auto& t : failed) {
        t.hits_valid = false;
        ++report.redealt;
        place(std::move(t));
      }
    }
    // Clean barrier: the dealer's prediction mirrors must have replayed
    // to exactly the units' resident sets. Checked before reseed (which
    // would make the comparison a tautology).
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (auto* obs = pool_.unit(i).observer()) {
        obs->on_join(lane_cache_[i].entries());
      }
    }
    reseed();
    // Every serial retired: compact the ledger, which also expires this
    // round's tickets.
    reset_ledger();
    report.healthy_units = healthy_units();
    accumulate(report);
    return report;
  }

 private:
  /// A dealt task with everything recovery needs to run it elsewhere: the
  /// submitted spec (the checker reads the chain on the worker thread, and
  /// a redeal replays it against the new lane's mirror at the full
  /// declared cost — hits are lane-specific), the submit serial (redeal
  /// order), and the fault history.
  struct PendingTask {
    Task fn;
    TaskSpec spec;
    std::uint64_t predicted_hits = 0;
    bool hits_valid = true;  ///< false once recovery invalidated the replay
    std::uint64_t serial = 0;  ///< submit order, stable across redeals
    std::size_t attempts = 0;  ///< faulted executions so far
    std::exception_ptr last_fault;
  };

  struct Lane {
    std::mutex mu;
    std::condition_variable cv;    ///< work available / stop requested
    std::condition_variable idle;  ///< queue drained and worker idle
    std::deque<PendingTask> queue;
    bool busy = false;
    bool stop = false;
    // Fault state, written by the worker under `mu`, harvested by join.
    bool dead = false;   ///< permanent fault observed: funnel, don't run
    bool dirty = false;  ///< a fault left work the dealer never predicted
    std::uint64_t transients = 0;
    std::uint64_t permanents = 0;
    std::uint64_t retried = 0;
    std::uint64_t drained = 0;
    std::uint64_t deferred = 0;
    std::vector<PendingTask> failed;  ///< awaiting redeal at the barrier
    std::thread worker;
  };

  /// The dealer, shared by `submit` and redeal, over healthy lanes. A
  /// chain is replayed against each lane's mirror to count hits; the
  /// winner keeps the replayed mirror and the task records its hit count.
  /// A tensor task with an empty chain replays like the chain {0} — its
  /// untagged calls clear the winner's mirror, no hits — and a CPU task
  /// leaves the mirror intact (a CPU task between two chained tasks must
  /// not cost the second its predicted hits). Neither copies a mirror.
  std::size_t place(PendingTask task) {
    const std::vector<std::uint64_t>& chain = task.spec.chain;
    const std::size_t none = projected_.size();
    std::size_t best = none;
    std::uint64_t best_done = 0;
    std::uint64_t best_hits = 0;
    std::optional<TileCache> best_cache;
    for (std::size_t i = 0; i < projected_.size(); ++i) {
      if (quarantined_[i]) continue;
      std::uint64_t hits = 0;
      std::optional<TileCache> sim;
      if (!chain.empty()) {
        sim = lane_cache_[i];
        for (const std::uint64_t key : chain) {
          if (key == 0) {
            sim->clear();
          } else if (sim->touch(key)) {
            ++hits;
          }
        }
      }
      std::uint64_t eff = task.spec.cost;
      eff -= std::min(hits * latency_, eff);
      const std::uint64_t done = projected_[i] + eff;
      if (best == none || done < best_done) {
        best = i;
        best_done = done;
        best_hits = hits;
        best_cache = std::move(sim);
      }
    }
    if (best == none) {
      throw fault::PermanentUnitFault("PoolExecutor: all units quarantined");
    }
    projected_[best] = best_done;
    if (best_cache) {
      lane_cache_[best] = std::move(*best_cache);
    } else if (!task.spec.cpu) {
      lane_cache_[best].clear();
    }
    task.predicted_hits = best_hits;
    enqueue(best, std::move(task));
    return best;
  }

  /// Mark one serial complete in the ledger and advance the low-water
  /// mark (all serials below it are retired). Worker threads call this
  /// for every task outcome that will not run again.
  void retire(std::uint64_t serial) {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    if (serial < ledger_base_) return;  // compacted: already retired
    const std::size_t idx = static_cast<std::size_t>(serial - ledger_base_);
    if (idx >= done_.size()) done_.resize(idx + 1, 0);
    done_[idx] = 1;
    while (low_water_ < ledger_base_ + done_.size() &&
           done_[static_cast<std::size_t>(low_water_ - ledger_base_)]) {
      ++low_water_;
    }
    ledger_cv_.notify_all();
  }

  bool deps_ready_locked(const PendingTask& t) const {
    for (const TaskTicket& d : t.spec.after) {
      if (d.serial < low_water_) continue;
      const auto idx = static_cast<std::size_t>(d.serial - ledger_base_);
      if (idx >= done_.size() || !done_[idx]) return false;
    }
    return true;
  }

  /// Raise the recovery flag and wake every dep-waiting worker: some
  /// serial may never retire on its own (a task failed, died with its
  /// lane, or hit a non-fault error), so blocked tasks must defer to the
  /// strict barrier instead of waiting. The empty critical section
  /// orders the flag write before any waiter's predicate re-check.
  void signal_recovery() {
    recovery_flag_.store(true, std::memory_order_release);
    { std::lock_guard<std::mutex> lock(ledger_mu_); }
    ledger_cv_.notify_all();
  }

  /// Forget every outstanding serial: the round is over (cleanly, or
  /// abandoned by fail_round, which re-anchors all state anyway), and
  /// tickets issued in it no longer name a dependency.
  void reset_ledger() {
    round_base_ = next_serial_;
    std::lock_guard<std::mutex> lock(ledger_mu_);
    low_water_ = next_serial_;
    ledger_base_ = next_serial_;
    done_.clear();
    recovery_flag_.store(false, std::memory_order_release);
  }

  enum class DepWait { kRun, kDefer, kStop };

  /// Block until the task's predecessor serials have retired.
  /// Returns kDefer when recovery is underway (the task goes back to the
  /// barrier for redealing — its predecessors may be in `failed` and
  /// unable to retire until then) and kStop on executor shutdown.
  DepWait wait_deps(const PendingTask& task) {
    if (task.spec.after.empty()) return DepWait::kRun;
    std::unique_lock<std::mutex> lock(ledger_mu_);
    ledger_cv_.wait(lock, [&] {
      return ledger_stop_ || deps_ready_locked(task) ||
             recovery_flag_.load(std::memory_order_acquire);
    });
    if (deps_ready_locked(task)) return DepWait::kRun;
    return ledger_stop_ ? DepWait::kStop : DepWait::kDefer;
  }

  void enqueue(std::size_t unit, PendingTask task) {
    Lane& lane = *lanes_.at(unit);
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.queue.push_back(std::move(task));
    }
    lane.cv.notify_one();
  }

  void quarantine_unspawned(std::size_t unit) {
    quarantined_[unit] = 1;
    ++spawn_failures_;
    cumulative_.spawn_failures = spawn_failures_;
    cumulative_.quarantined.push_back(unit);
  }

  void wait_all_idle() {
    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      std::unique_lock<std::mutex> lock(lane.mu);
      lane.idle.wait(lock, [&] { return lane.queue.empty() && !lane.busy; });
    }
  }

  /// Abandon the round for a rethrow: fold the partial report into the
  /// lifetime statistics (the harvested faults really happened, so
  /// `fault_stats()` must not forget them), then re-anchor prediction and
  /// residency at the empty set and reseed the projections — leaving the
  /// executor reusable. Callable only while every worker is idle.
  void fail_round(RoundReport& report) {
    report.healthy_units = healthy_units();
    accumulate(report);
    reseed();
    evict_all();
    // Outstanding serials died with the round; forget them so the next
    // round's dep-waits cannot block on tasks that will never run.
    reset_ledger();
  }

  void accumulate(const RoundReport& report) {
    cumulative_.transient_faults += report.transient_faults;
    cumulative_.permanent_faults += report.permanent_faults;
    cumulative_.retried += report.retried;
    cumulative_.redealt += report.redealt;
    cumulative_.drained += report.drained;
    cumulative_.deferred += report.deferred;
    cumulative_.spawn_failures = spawn_failures_;
    cumulative_.healthy_units = report.healthy_units;
    // cumulative_.quarantined is appended at quarantine time.
  }

  /// Re-anchor the submit-side predictions on the units' actual state:
  /// projections from the live counters, prediction mirrors as copies of
  /// the live tile caches. Safe whenever all workers are idle
  /// (construction and join): the drained workers' writes happen-before
  /// the idle wait returned.
  void reseed() {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      projected_[i] = pool_.unit(i).counters().tensor_time;
      lane_cache_[i] = pool_.unit(i).tile_cache();
    }
  }

  void worker_loop(Lane& lane, Device<T>& unit) {
    for (;;) {
      PendingTask task;
      bool dead = false;
      {
        std::unique_lock<std::mutex> lock(lane.mu);
        lane.cv.wait(lock, [&] { return lane.stop || !lane.queue.empty(); });
        if (lane.queue.empty()) return;  // stop requested and drained
        task = std::move(lane.queue.front());
        lane.queue.pop_front();
        lane.busy = true;
        dead = lane.dead;
      }
      run_one(lane, unit, std::move(task), dead);
      {
        std::lock_guard<std::mutex> lock(lane.mu);
        lane.busy = false;
        if (lane.queue.empty()) lane.idle.notify_all();
      }
    }
  }

  /// Execute one task on the worker thread, bracketing it for the unit's
  /// observer and absorbing fault exceptions into the lane's recovery
  /// state. Transient faults retry in place (the faulted call charged
  /// nothing, and the task's output writes are idempotent); once the
  /// same-lane budget is spent the task joins `lane.failed` for the
  /// barrier to redeal. A permanent fault kills the lane: the unit's
  /// residency is re-anchored at empty and every later queued task is
  /// funneled back unrun. Non-fault exceptions go to `first_error_`.
  void run_one(Lane& lane, Device<T>& unit, PendingTask task, bool dead) {
    if (dead) {
      std::lock_guard<std::mutex> lock(lane.mu);
      ++lane.drained;
      lane.failed.push_back(std::move(task));
      return;
    }
    switch (wait_deps(task)) {
      case DepWait::kRun:
        break;
      case DepWait::kStop:
        return;  // shutdown without join: round abandoned
      case DepWait::kDefer: {
        // A predecessor is stuck in recovery; hand the task back to the
        // strict barrier unrun (no attempt consumed). The dealer's
        // mirror was advanced for a task that never touched this unit —
        // mark the lane dirty so join() re-anchors it.
        std::lock_guard<std::mutex> lock(lane.mu);
        lane.dirty = true;
        ++lane.deferred;
        lane.failed.push_back(std::move(task));
        return;
      }
    }
    check::UnitObserver* obs = unit.observer();
    std::size_t lane_retries = 0;
    for (;;) {
      if (obs) {
        const bool affine = !task.spec.chain.empty();
        obs->on_task_begin(affine ? &task.spec.chain : nullptr,
                           task.predicted_hits, affine, task.hits_valid);
      }
      try {
        task.fn(unit);
        if (obs) obs->on_task_end(/*failed=*/false);
        retire(task.serial);
        return;
      } catch (const fault::PermanentUnitFault&) {
        if (obs) obs->on_task_end(/*failed=*/true);
        task.last_fault = std::current_exception();
        ++task.attempts;
        unit.evict_all();  // the dead unit can vouch for nothing
        {
          std::lock_guard<std::mutex> lock(lane.mu);
          lane.dead = true;
          ++lane.permanents;
          lane.failed.push_back(std::move(task));
        }
        signal_recovery();
        return;
      } catch (const fault::TransientFault&) {
        if (obs) obs->on_task_end(/*failed=*/true);
        task.last_fault = std::current_exception();
        ++task.attempts;
        const bool retry_here = task.attempts < kMaxAttempts &&
                                lane_retries < kSameLaneRetries;
        {
          std::lock_guard<std::mutex> lock(lane.mu);
          lane.dirty = true;
          ++lane.transients;
          if (retry_here) ++lane.retried;
        }
        if (retry_here) {
          ++lane_retries;
          task.hits_valid = false;
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(lane.mu);
          lane.failed.push_back(std::move(task));
        }
        signal_recovery();
        return;
      } catch (...) {
        if (obs) obs->on_task_end(/*failed=*/true);
        {
          std::lock_guard<std::mutex> lock(error_mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        // The task's serial will never retire; unstick any dep-waiters.
        signal_recovery();
        return;
      }
    }
  }

  void shutdown() {
    for (auto& lane_ptr : lanes_) {
      std::lock_guard<std::mutex> lock(lane_ptr->mu);
      lane_ptr->stop = true;
      lane_ptr->cv.notify_one();
    }
    {
      // Wake workers parked in a dep-wait: their predecessors may sit in
      // queues behind them and can never retire once we stop draining.
      std::lock_guard<std::mutex> lock(ledger_mu_);
      ledger_stop_ = true;
    }
    ledger_cv_.notify_all();
    for (auto& lane_ptr : lanes_) {
      if (lane_ptr->worker.joinable()) lane_ptr->worker.join();
    }
  }

  DevicePool<T>& pool_;
  std::uint64_t latency_;                 ///< the units' load latency l
  std::vector<std::uint64_t> projected_;  ///< submit-thread-only state
  std::vector<TileCache> lane_cache_;     ///< predicted resident set/lane
  std::vector<char> quarantined_;         ///< submit-thread-only view
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t next_serial_ = 1;  ///< 0 is the null ticket's serial
  std::uint64_t spawn_failures_ = 0;
  RoundReport cumulative_;  ///< lifetime fault statistics
  std::mutex error_mu_;
  std::exception_ptr first_error_;
  // Completion ledger: which serials have retired. `done_` is indexed by
  // serial - ledger_base_; `low_water_` is the smallest unretired serial
  // (compacted forward at every strict join). Guarded by ledger_mu_.
  std::mutex ledger_mu_;
  std::condition_variable ledger_cv_;
  std::vector<std::uint8_t> done_;
  std::uint64_t ledger_base_ = 1;
  std::uint64_t low_water_ = 1;
  bool ledger_stop_ = false;
  /// Raised by any outcome that strands a serial (fault, funneled task,
  /// non-fault error): dep-waiting workers defer to the strict barrier
  /// instead of blocking on a retire that will never come.
  std::atomic<bool> recovery_flag_{false};
  /// Oldest serial a dep may name: the first serial since the last join.
  /// Submit-thread-only, like the dealer's projections.
  std::uint64_t round_base_ = 1;
};

/// The executor interface on one borrowed device: `submit` runs each task
/// at once on the caller's thread, so submit order is execution order and
/// a schedule written against `submit`/`join` runs serially here. It
/// rejects what `PoolExecutor::submit` rejects, then runs the task in the
/// observer bracket a pool worker uses (`hits_valid` false: there is no
/// dealer mirror). A task that throws ends its bracket as failed; like a
/// failed pool round, `submit` then re-anchors residency at empty,
/// expires the round's tickets and rethrows. Must not run inside another
/// executor's task: the contract checker rejects nested task brackets.
template <typename T>
class InlineExecutor {
 public:
  using Task = std::function<void(Device<T>&)>;

  explicit InlineExecutor(Device<T>& dev) : dev_(dev) {}

  TaskTicket submit(const TaskSpec& spec, const Task& task) {
    check_submit(spec, round_base_, next_serial_);
    const TaskTicket ticket{.serial = next_serial_++};
    check::UnitObserver* obs = dev_.observer();
    if (obs) {
      const bool affine = !spec.chain.empty();
      obs->on_task_begin(affine ? &spec.chain : nullptr, 0, affine,
                         /*hits_valid=*/false);
    }
    try {
      task(dev_);
    } catch (...) {
      if (obs) obs->on_task_end(/*failed=*/true);
      evict_all();
      round_base_ = next_serial_;
      throw;
    }
    if (obs) obs->on_task_end(/*failed=*/false);
    return ticket;
  }

  /// The schedule reads of PoolExecutor: the one device prices tasks, is
  /// the one lane, and takes the submit thread's CPU charges.
  const Device<T>& unit0() const { return dev_; }
  std::size_t size() const { return 1; }
  void charge_cpu(std::uint64_t ops) { dev_.charge_cpu(ops); }

  void evict_all() { dev_.evict_all(); }

  /// PoolExecutor::for_each_lane with no lanes: the caller's share is the
  /// only one.
  template <typename Fn>
  void for_each_lane(Fn&& fn) {
    fn(std::size_t{0}, std::size_t{1});
  }

  /// Every task already ran: the barrier only expires the round's tickets.
  RoundReport join() {
    round_base_ = next_serial_;
    RoundReport report;
    report.healthy_units = 1;
    return report;
  }

 private:
  Device<T>& dev_;
  std::uint64_t next_serial_ = 1;  ///< 0 is the null ticket's serial
  std::uint64_t round_base_ = 1;   ///< oldest serial a dep may name
};

}  // namespace tcu
