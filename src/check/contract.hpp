#pragma once
// Debug-mode contract checker for the (m, l)-TCU residency model.
//
// PRs 2-4 established the model's conventions: long-lived right operands
// are tagged with `gemm_resident`, every declared `TaskSpec::chain` lists
// exactly the keys its task touches in order, counters obey the latency
// conservation law, and the pool's prediction mirrors replay the units'
// LRU transitions bit-for-bit. Nothing enforced any of it — PR 4 was an
// entire bugfix PR for silent violations. `UnitChecker` turns the
// conventions into machine-checked assertions by shadowing one device
// through the `check::UnitObserver` seam (core/observer.hpp):
//
//   * a shadow TileCache replays every call's LRU transition and must
//     land on the device's exact resident set, hit/eviction counts, and
//     latency charges — per event, not just in aggregate;
//   * the conservation law  Δ(latency_time + latency_saved) == Δcalls·ℓ
//     and the hit bound  Δresident_hits <= Δtagged_calls  must hold at
//     every event (each issued call adds ℓ to exactly one side);
//   * a PoolExecutor task submitted with a non-empty `TaskSpec::chain`
//     must issue exactly that chain — extra, missing, or reordered keys
//     are hard errors — and must realize exactly the hits the dealer
//     predicted;
//   * an untagged `gemm` that clobbers a live resident set is flagged
//     unless the site is allowlisted (`AllowUntaggedClobber`), the task
//     declared it (a 0 chain entry), or the task declared no chain at
//     all, so the dealer already dropped the lane's prediction mirror;
//   * after a failed task abandons its chain, any tensor call issued
//     outside the executor's grace window before the `evict_all`
//     re-anchor is a "stale resident set" error;
//   * at every clean `join()` the dealer's mirror must equal the unit's
//     resident set (prediction == realization).
//
// Violations throw `ContractError`. Checkers attach two ways: building
// with -DTCU_CHECK=ON gives every Device an automatic checker from
// birth, and `ScopedCheck` attaches explicitly to a device or pool for
// the lifetime of a scope (tests use this to assert violations fire).

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "core/observer.hpp"
#include "core/pool.hpp"

namespace tcu::check {

/// A model-contract violation. Derives from std::logic_error: these are
/// programming errors in workload code, not runtime conditions.
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

/// RAII allowlist for untagged calls that deliberately clobber a live
/// resident set (cold-stream baselines, operands that change every call).
/// Thread-local and counted, so scopes nest and a scope on one thread
/// never blesses another. Every scope in src/ should sit next to a
/// matching `// tcu-lint: untagged-ok(<reason>)` annotation — the static
/// and runtime halves of the same audit entry.
class AllowUntaggedClobber {
 public:
  AllowUntaggedClobber();
  ~AllowUntaggedClobber();
  AllowUntaggedClobber(const AllowUntaggedClobber&) = delete;
  AllowUntaggedClobber& operator=(const AllowUntaggedClobber&) = delete;

  /// True while any scope is live on the calling thread.
  static bool active();
};

/// Shadow-state checker for one Device. See the file comment for the
/// invariants. All per-unit entry points run on the thread that owns the
/// device (see core/observer.hpp's threading contract); no locking.
class UnitChecker final : public UnitObserver {
 public:
  UnitChecker(std::string name, std::uint64_t latency, std::size_t tile_dim,
              bool allow_tall, std::size_t cache_capacity);

  /// Adopt `counters` / `cache_entries` as the device's current ground
  /// truth. Called when attaching to a device with history; a desynced
  /// checker instead re-adopts lazily at its next observed call.
  void sync(const Counters& counters,
            const std::vector<std::uint64_t>& cache_entries);

  void on_gemm(std::uint64_t key, bool tagged, const Counters& after,
               const std::vector<std::uint64_t>& cache_entries) override;
  void on_evict_all() override;
  void on_reset() override;
  void on_desync() override;
  // No default for `hits_valid` here: default arguments bind statically,
  // so redeclaring the base's default on an override invites silently
  // divergent call sites. The base virtual alone carries it.
  void on_task_begin(const std::vector<std::uint64_t>* chain,
                     std::uint64_t predicted_hits, bool affine,
                     bool hits_valid) override;
  void on_task_end(bool failed) override;
  void on_join(const std::vector<std::uint64_t>& mirror_entries) override;

  /// Re-check the standing invariants (conservation law, hit bound) and
  /// throw ContractError on violation. on_join calls this automatically;
  /// serial users may call it at any quiescent point.
  void verify() const;

  const std::string& name() const { return name_; }

  /// Tensor calls validated since the last sync/reset (attachment proof
  /// for tests: zero means the checker never saw an event).
  std::uint64_t checked_calls() const { return checked_calls_; }

 private:
  enum class TaskMode { kNone, kUntagged, kAffine };

  [[noreturn]] void fail(const std::string& msg) const;
  void check_standing(const Counters& now) const;
  bool clobber_sanctioned() const;

  std::string name_;
  std::uint64_t latency_;
  std::size_t tile_dim_;
  bool allow_tall_;

  TileCache shadow_;          ///< replayed resident set
  bool synced_ = false;       ///< false = adopt device state at next event
  Counters last_;             ///< device counters after the last event
  Counters base_;             ///< counters at sync (laws measured from here)
  std::uint64_t checked_calls_ = 0;

  // Task bracket state (set by the PoolExecutor wrapper).
  TaskMode mode_ = TaskMode::kNone;
  std::vector<std::uint64_t> declared_;  ///< affine task's declared chain
  std::vector<std::uint64_t> observed_;  ///< keys actually issued (0=untagged)
  std::uint64_t predicted_hits_ = 0;     ///< dealer's replayed hit count
  std::uint64_t task_realized_hits_ = 0; ///< invocations served resident
  bool task_baseline_valid_ = false;
  bool needs_anchor_ = false;  ///< failed task left the chain unfinished
};

/// Attach a UnitChecker to a device — or one per unit of a DevicePool —
/// for the lifetime of the scope, restoring any previous observers on
/// exit. The checkers are synced to the live state at attachment, so a
/// mid-stream attach starts clean. Attach/detach only while quiescent.
template <typename T>
class ScopedCheck {
 public:
  explicit ScopedCheck(Device<T>& dev) { attach(dev); }
  explicit ScopedCheck(DevicePool<T>& pool) {
    for (std::size_t i = 0; i < pool.size(); ++i) attach(pool.unit(i));
  }
  ScopedCheck(const ScopedCheck&) = delete;
  ScopedCheck& operator=(const ScopedCheck&) = delete;
  ~ScopedCheck() {
    for (std::size_t i = devices_.size(); i-- > 0;) {
      devices_[i]->set_observer(previous_[i]);
    }
  }

  std::size_t size() const { return checkers_.size(); }
  UnitChecker& unit(std::size_t i) { return *checkers_.at(i); }

  /// Standing invariants across every attached unit.
  void verify() const {
    for (const auto& checker : checkers_) checker->verify();
  }

 private:
  void attach(Device<T>& dev) {
    auto checker = std::make_unique<UnitChecker>(
        dev.name(), dev.latency(), dev.tile_dim(), dev.allows_tall(),
        dev.cache_capacity());
    checker->sync(dev.counters(), dev.tile_cache().entries());
    previous_.push_back(dev.set_observer(checker.get()));
    devices_.push_back(&dev);
    checkers_.push_back(std::move(checker));
  }

  std::vector<Device<T>*> devices_;
  std::vector<UnitObserver*> previous_;
  std::vector<std::unique_ptr<UnitChecker>> checkers_;
};

}  // namespace tcu::check
