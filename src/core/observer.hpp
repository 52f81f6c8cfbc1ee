#pragma once
// Instrumentation seam for the (m, l)-TCU contract checker.
//
// The model's correctness story rests on conventions the type system
// cannot see: long-lived right operands must be tagged with
// `gemm_resident`, a pooled task's `TaskSpec::chain` must list exactly
// the keys the task touches, and per-unit counters must satisfy closed-form
// conservation laws. `UnitObserver` is the hook through which a checker
// watches one `Device` — every tensor call, invalidation, reset, and
// (through `PoolExecutor`) task bracket and join barrier — without the
// core headers depending on the checker. The production build carries
// only a null-pointer test per event; `src/check/contract.hpp` provides
// the real implementation, and building with -DTCU_CHECK=ON attaches one
// checker per device automatically.
//
// Threading contract: a device's observer is invoked only from the thread
// that owns the device (the caller in serial code, the one worker thread
// of that unit's lane under PoolExecutor). `on_join` is invoked from the
// submitting thread, but only at the join barrier, after the lane's idle
// wait — so it is ordered after every task-side event. Observers
// therefore need no locking for per-unit state. Attach or detach
// observers only while the device is quiescent (no queued or running
// tasks touch it).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/counters.hpp"

namespace tcu::fault {

/// Fault taxonomy for the injection seam. These are *runtime conditions*
/// (unlike check::ContractError's logic errors): `PoolExecutor` recovers
/// from them — transient faults are retried, permanent ones quarantine
/// the unit and redeal its work — while every other exception type keeps
/// the historical rethrow-at-join contract.
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A one-off failure of a single tensor call (a dropped result, an ECC
/// hiccup). The call charged nothing; re-issuing it is safe.
class TransientFault : public FaultError {
 public:
  using FaultError::FaultError;
};

/// The unit died: this call and every later call on it will fail. The
/// executor quarantines the unit and drains its queue to survivors.
class PermanentUnitFault : public FaultError {
 public:
  using FaultError::FaultError;
};

/// A worker thread could not be spawned (EAGAIN). The executor degrades
/// to the workers that did start instead of aborting the pool.
class SpawnFault : public FaultError {
 public:
  using FaultError::FaultError;
};

/// Injection seam for one Device (the fault analogue of
/// check::UnitObserver): `src/fault/fault.hpp` implements it with a
/// seeded deterministic plan. A device consults its injector at the top
/// of every `gemm`/`gemm_resident`, *before* shape validation, cache
/// transitions, or counter charges — so a throwing injector fails the
/// call with zero side effects and a retry is bit-identical to a first
/// attempt. Threading contract matches UnitObserver: `on_call` runs on
/// the thread that owns the device, `on_spawn` on the executor's
/// constructing thread; attach only while the device is quiescent.
class UnitFaultInjector {
 public:
  virtual ~UnitFaultInjector() = default;

  /// Invoked before a tensor call charges. Throw TransientFault or
  /// PermanentUnitFault to fail the call; may also sleep (straggler
  /// simulation — wall-clock only, never model counters).
  virtual void on_call() = 0;

  /// Invoked before this unit's worker thread is spawned. Throw
  /// SpawnFault to simulate thread-creation EAGAIN.
  virtual void on_spawn() {}
};

}  // namespace tcu::fault

namespace tcu::check {

class UnitObserver {
 public:
  virtual ~UnitObserver() = default;

  /// A tensor call completed on the device. `key` is the resident-operand
  /// identity (Device::kNoResident for untagged calls), `tagged` says
  /// whether the call went through `gemm_resident` with a nonzero key.
  /// `after` are the unit's counters and `cache_entries` its resident set
  /// (LRU -> MRU) *after* the call charged.
  virtual void on_gemm(std::uint64_t key, bool tagged, const Counters& after,
                       const std::vector<std::uint64_t>& cache_entries) = 0;

  /// Device::evict_all ran: the resident set was explicitly re-anchored
  /// at empty (no eviction counted).
  virtual void on_evict_all() {}

  /// Device::reset ran: counters and resident set both returned to zero.
  virtual void on_reset() {}

  /// The device's effective observer changed (or its state may have been
  /// mutated outside the observed event stream). A stateful observer
  /// should drop its shadow state and re-adopt the device's at the next
  /// event instead of reporting phantom violations.
  virtual void on_desync() {}

  /// A PoolExecutor task is about to run on this unit's worker thread.
  /// `chain` is the task's `TaskSpec::chain` (null when that is empty: a
  /// CPU task, or a tensor task whose calls are all assumed untagged),
  /// `predicted_hits` the dealer's replayed hit count for the winning
  /// lane, and `affine` whether the task declared a chain.
  /// `hits_valid` is false when the executor knows the dealer's replay no
  /// longer describes this lane — a fault-recovery retry or a redeal to a
  /// different unit — so a stateful checker must not hold the task to
  /// `predicted_hits`.
  virtual void on_task_begin(const std::vector<std::uint64_t>* chain,
                             std::uint64_t predicted_hits, bool affine,
                             bool hits_valid = true) {
    (void)chain;
    (void)predicted_hits;
    (void)affine;
    (void)hits_valid;
  }

  /// The task returned (`failed` = false) or threw (`failed` = true). A
  /// failed task abandons its declared chain; the executor re-anchors at
  /// the next join.
  virtual void on_task_end(bool failed) { (void)failed; }

  /// The join barrier reached this unit with no recorded worker error.
  /// `mirror_entries` is the dealer's prediction mirror for the lane
  /// (LRU -> MRU), which must equal the unit's actual resident set.
  virtual void on_join(const std::vector<std::uint64_t>& mirror_entries) {
    (void)mirror_entries;
  }
};

/// Factory for the auto-attached checker used by -DTCU_CHECK=ON builds.
/// Declared here so `Device` (a template instantiated in many TUs) can
/// create checkers without including the checker implementation; defined
/// in src/check/contract.cpp. The returned observer is already synced to
/// an all-zero, empty-cache device — create it at device construction.
UnitObserver* make_auto_checker(const char* name, std::uint64_t latency,
                                std::size_t tile_dim, bool allow_tall,
                                std::size_t cache_capacity);
void destroy_checker(UnitObserver* checker);

/// Owning handle for an auto-attached checker. Copying a device yields a
/// copy with no auto checker (shadow state cannot be cloned through the
/// abstract interface); moving transfers the checker. Destruction is
/// routed through `destroy_checker` so the core headers never need the
/// checker's definition.
class OwnedChecker {
 public:
  OwnedChecker() = default;
  explicit OwnedChecker(UnitObserver* checker) : checker_(checker) {}
  OwnedChecker(const OwnedChecker&) : checker_(nullptr) {}
  OwnedChecker& operator=(const OwnedChecker& other) {
    // A copied-over device has fresh counters the old shadow state cannot
    // explain: drop the checker rather than report phantom violations.
    if (this != &other) reset(nullptr);
    return *this;
  }
  OwnedChecker(OwnedChecker&& other) noexcept
      : checker_(other.checker_) {
    other.checker_ = nullptr;
  }
  OwnedChecker& operator=(OwnedChecker&& other) noexcept {
    if (this != &other) {
      reset(other.checker_);
      other.checker_ = nullptr;
    }
    return *this;
  }
  ~OwnedChecker() { reset(nullptr); }

  UnitObserver* get() const { return checker_; }
  void reset(UnitObserver* checker) {
    if (checker_) destroy_checker(checker_);
    checker_ = checker;
  }

 private:
  UnitObserver* checker_ = nullptr;
};

}  // namespace tcu::check
