#pragma once
// The simulated tensor core unit: the heart of the (m, l)-TCU model.
//
// Section 3 of the paper defines the model: a RAM machine whose CPU owns a
// circuit multiplying an n x sqrt(m) left operand by a sqrt(m) x sqrt(m)
// right operand in time O(n*sqrt(m) + l), where n >= sqrt(m) is chosen per
// call. `Device<T>` reproduces that contract:
//
//   * `gemm` executes the product (bit-exactly for integral T) and charges
//     exactly n*sqrt(m) + l simulated time units to its `Counters`.
//   * In *weak* mode (Section 5) tall operands are split into square
//     sqrt(m) x sqrt(m) calls, each charged m + l, reproducing the weak
//     TCU model used for the lower-bound transfer of Theorem 12.
//   * The numeric engine is pluggable: the default reference engine is a
//     tight triple loop; `tcu::systolic` installs a cycle-level systolic
//     array (Section 2.2 / Figure 1) that also reports cycle counts.
//
// The device does not model limited numerical precision or multiple
// parallel units; Section 3.1 of the paper explicitly scopes those out.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/counters.hpp"
#include "core/matrix.hpp"
#include "core/observer.hpp"
#include "core/trace.hpp"

namespace tcu {

/// floor(sqrt(v)) computed in pure integer arithmetic. The double
/// round-trip is only exact where the platform guarantees a correctly
/// rounded sqrt; above 2^52 the conversion to double is already lossy, so
/// the FP estimate only seeds a Newton iteration that converges from above
/// and is finished with an exact neighbor check.
inline std::size_t isqrt(std::size_t v) {
  if (v < 2) return v;
  auto x = static_cast<std::size_t>(std::sqrt(static_cast<double>(v))) + 2;
  while (true) {
    const std::size_t y = (x + v / x) / 2;
    if (y >= x) break;
    x = y;
  }
  while (x + 1 <= v / (x + 1)) ++x;  // overflow-safe (x+1)^2 <= v
  while (x > v / x) --x;             // overflow-safe x^2 > v
  return x;
}

/// Integer square root; throws unless v is a perfect square.
inline std::size_t exact_sqrt(std::size_t v) {
  const std::size_t root = isqrt(v);
  if (root * root != v) {
    throw std::invalid_argument("exact_sqrt: value is not a perfect square");
  }
  return root;
}

/// A small LRU set of resident-tile keys: the model of a tensor core that
/// holds `capacity` right-operand tiles at once. Capacity 1 reproduces the
/// single resident slot of the original model bit-for-bit. Keys are
/// caller-chosen nonzero identities (0 = "no tile"); lookup is a linear
/// scan, which beats any indexed structure at the 1-8 entry sizes real
/// boards motivate. The same class serves as the device's ground truth
/// and as the scheduler's per-lane prediction mirror (core/pool.hpp), so
/// the two can never disagree about LRU transitions.
class TileCache {
 public:
  explicit TileCache(std::size_t capacity = 1) : capacity_(capacity) {
    if (capacity_ == 0) {
      throw std::invalid_argument("TileCache: capacity must be >= 1");
    }
    entries_.reserve(capacity_);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }

  bool contains(std::uint64_t key) const {
    for (const std::uint64_t k : entries_) {
      if (k == key) return true;
    }
    return false;
  }

  /// Access `key`: on a hit the key moves to most-recently-used position
  /// and true is returned; on a miss the key is inserted as MRU — the
  /// least-recently-used entry is dropped if the cache is full, reported
  /// through `*evicted` — and false is returned.
  bool touch(std::uint64_t key, bool* evicted = nullptr) {
    if (evicted) *evicted = false;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i] == key) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        entries_.push_back(key);
        return true;
      }
    }
    if (entries_.size() == capacity_) {
      entries_.erase(entries_.begin());
      if (evicted) *evicted = true;
    }
    entries_.push_back(key);
    return false;
  }

  void clear() { entries_.clear(); }

  /// The most-recently-used key, or 0 when the cache is empty.
  std::uint64_t mru() const { return entries_.empty() ? 0 : entries_.back(); }

  /// Keys in LRU -> MRU order (for mirroring by the scheduler).
  const std::vector<std::uint64_t>& entries() const { return entries_; }

 private:
  std::size_t capacity_;
  std::vector<std::uint64_t> entries_;  ///< front = LRU, back = MRU
};

/// Build a symbolic resident-tile key: `tag` namespaces the id space and
/// lands in bits 63..48, `id` identifies the tile's *content* within it.
/// The default keys used by the pool matmul are storage addresses;
/// user-space virtual addresses stay below 2^57 even on 57-bit-VA
/// systems (x86-64 5-level paging, arm64 LVA), so any tag >= 0x0200
/// yields keys >= 2^57 that can never collide with an address key — pick
/// tags in that range (the DFT level tiles use 0xD517, the
/// Gaussian-elimination panel strips 0x6E47; distinct tags can never
/// collide with each other). A symbolic key must follow the same
/// identity contract as an address key: equal keys promise equal tile
/// content.
constexpr std::uint64_t make_tile_key(std::uint16_t tag, std::uint64_t id) {
  return (static_cast<std::uint64_t>(tag) << 48) |
         (id & ((std::uint64_t{1} << 48) - 1));
}

template <typename T>
class Device {
 public:
  /// Numeric engine signature: computes C = A*B (or C += A*B) for an
  /// n x s left operand and s x s right operand, and may add engine detail
  /// (e.g. systolic cycles) to the counters. It must NOT charge model time;
  /// the device does that. Engines run on the backend seam through an
  /// EngineBackend adapter (core/backend.hpp).
  using Engine = GemmFn<T>;

  struct Config {
    std::size_t m = 256;        ///< tile area; sqrt(m) x sqrt(m) right operand
    std::uint64_t latency = 0;  ///< the model parameter l
    bool allow_tall = true;     ///< false = weak TCU model (square calls only)
    std::size_t resident_tiles = 1;  ///< LRU capacity c of the tile cache
    std::string name = "tcu";
    /// Numeric backend executing the charged products (core/backend.hpp);
    /// kDefault honors the TCU_BACKEND env var and falls back to sim, the
    /// bit-for-bit historical engine. Model charges are backend-invariant.
    BackendKind backend = BackendKind::kDefault;
  };

  explicit Device(Config cfg)
      : Device(std::move(cfg),
               static_cast<std::shared_ptr<GemmBackend<T>>>(nullptr)) {}

  Device(Config cfg, Engine engine)
      : Device(std::move(cfg),
               std::make_shared<EngineBackend<T>>(std::move(engine))) {}

  /// All construction funnels here: a null backend means "build from
  /// cfg.backend" (resolving kDefault via TCU_BACKEND).
  Device(Config cfg, std::shared_ptr<GemmBackend<T>> backend)
      : cfg_(std::move(cfg)),
        backend_(std::move(backend)),
        cache_(cfg_.resident_tiles) {
    if (cfg_.m == 0) throw std::invalid_argument("Device: m must be >= 1");
    s_ = exact_sqrt(cfg_.m);
    if (!backend_) backend_ = make_backend<T>(cfg_.backend);
#ifdef TCU_CHECK
    // Debug-mode contract checking: every device is born with a checker
    // shadowing its resident set and counters (src/check/contract.cpp).
    auto_checker_.reset(check::make_auto_checker(cfg_.name.c_str(),
                                                 cfg_.latency, s_,
                                                 cfg_.allow_tall,
                                                 cache_.capacity()));
#endif
  }

  std::size_t m() const { return cfg_.m; }
  std::size_t tile_dim() const { return s_; }  ///< sqrt(m)
  std::uint64_t latency() const { return cfg_.latency; }
  bool allows_tall() const { return cfg_.allow_tall; }
  const std::string& name() const { return cfg_.name; }

  /// C = A * B (or C += A * B when `accumulate`), with A: n x s, B: s x s,
  /// C: n x s. Charges n*s + l model time (tall mode) or ceil(n/s)*(m + l)
  /// (weak mode). Rows are processed even when n < s, but a full tile is
  /// charged: the hardware pipeline cannot be shortened below its depth.
  /// The right operand of an untagged call is anonymous, so it invalidates
  /// the *entire* resident set — the unit can no longer vouch for any of
  /// its tiles.
  void gemm(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
            bool accumulate = false) {
    if (fault_) fault_->on_call();  // a faulted call has zero side effects
    validate_shapes(A, B, C);  // reject before mutating the resident set
    cache_.clear();
    gemm_charged(A, B, C, accumulate, /*first_hit=*/false, /*tracked=*/false);
    notify_gemm(kNoResident, /*tagged=*/false);
  }

  /// Like `gemm`, but the right operand carries a caller-chosen nonzero
  /// identity `key`. If `key` is a member of the unit's resident set, the
  /// load latency l is *not* charged again (the model charges l per tile
  /// load; a resident model is streamed for free, §3's asymmetry property)
  /// and the hit is counted. Otherwise the tile is loaded, charged in
  /// full, and becomes the most-recently-used resident — displacing the
  /// LRU tile (counted in Counters::evictions) when the cache is at its
  /// configured capacity. In weak mode the square calls of one split
  /// share the tile, so only the first pays l.
  void gemm_resident(std::uint64_t key, ConstMatrixView<T> A,
                     ConstMatrixView<T> B, MatrixView<T> C,
                     bool accumulate = false) {
    if (key == kNoResident) {
      gemm(A, B, C, accumulate);  // delegation injects the fault there
      return;
    }
    if (fault_) fault_->on_call();  // a faulted call has zero side effects
    validate_shapes(A, B, C);  // reject before mutating the resident set
    bool evicted = false;
    const bool hit = cache_.touch(key, &evicted);
    if (evicted) counters_.count_eviction();
    gemm_charged(A, B, C, accumulate, hit, /*tracked=*/true);
    notify_gemm(key, /*tagged=*/true);
  }

  /// Identity of the most-recently-used resident operand (0 = none).
  std::uint64_t resident_key() const { return cache_.mru(); }

  /// The unit's resident set (LRU -> MRU order); the scheduler mirrors
  /// this to predict hits without touching the worker thread.
  const TileCache& tile_cache() const { return cache_; }

  /// Configured residency capacity c.
  std::size_t cache_capacity() const { return cache_.capacity(); }

  /// Drop every resident tile (no eviction is counted: this is an explicit
  /// invalidation, not capacity pressure). PoolExecutor re-anchors with
  /// this when a failed task leaves the declared chain unfinished, so the
  /// scheduler's prediction can never drift from the unit's state.
  void evict_all() {
    cache_.clear();
    if (auto* obs = observer()) obs->on_evict_all();
  }

  static constexpr std::uint64_t kNoResident = 0;

  /// Convenience wrapper allocating the output.
  Matrix<T> multiply(const Matrix<T>& A, const Matrix<T>& B) {
    Matrix<T> C(A.rows(), B.cols());
    gemm(A.view(), B.view(), C.view(), /*accumulate=*/false);
    return C;
  }

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  void reset() {
    counters_.reset();
    trace_.clear();
    cache_.clear();
    wall_ns_ = 0;
    if (auto* obs = observer()) obs->on_reset();
  }

  /// Measured wall-clock nanoseconds spent inside the numeric backend
  /// across this device's calls. Deliberately *not* a Counters field: the
  /// determinism suites compare counters bitwise across runs, and wall
  /// time is the one machine-dependent signal. Cleared by reset().
  std::uint64_t wall_ns() const { return wall_ns_; }

  /// The numeric backend executing this device's products.
  const GemmBackend<T>& backend() const { return *backend_; }
  const char* backend_name() const { return backend_->name(); }

  /// The observer receiving this device's events: an explicitly attached
  /// one (set_observer) wins over the TCU_CHECK auto-attached checker.
  check::UnitObserver* observer() const {
    return observer_ ? observer_ : auto_checker_.get();
  }

  /// Attach (or with nullptr, detach) an explicit observer; returns the
  /// previous explicit observer so scoped attachments can restore it.
  /// Only call while the device is quiescent. The auto-attached checker
  /// is masked while an explicit observer is set and told to resync,
  /// since it misses the masked events.
  check::UnitObserver* set_observer(check::UnitObserver* obs) {
    if (auto* auto_obs = auto_checker_.get()) auto_obs->on_desync();
    return std::exchange(observer_, obs);
  }

  /// The fault injector consulted at the top of every `gemm` /
  /// `gemm_resident` (src/fault/fault.hpp), or null when none is
  /// attached. Injection happens *before* shape validation, cache
  /// transitions, and counter charges, so a faulted call leaves no trace
  /// and a retry is bit-identical to a first attempt.
  fault::UnitFaultInjector* fault_injector() const { return fault_; }

  /// Attach (or with nullptr, detach) a fault injector; returns the
  /// previous one so scoped attachments can restore it. Only call while
  /// the device is quiescent.
  fault::UnitFaultInjector* set_fault_injector(fault::UnitFaultInjector* f) {
    return std::exchange(fault_, f);
  }

  /// Charge `ops` unit-cost RAM operations (the algorithms' CPU work).
  void charge_cpu(std::uint64_t ops) { counters_.charge_cpu(ops); }

  void enable_trace(bool on = true) { tracing_ = on; }
  bool tracing() const { return tracing_; }
  const Trace& trace() const { return trace_; }

  /// Default numeric engine: straightforward triple loop.
  static Engine reference_engine() {
    return [](ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
              bool accumulate, Counters&) {
      const std::size_t n = A.rows;
      const std::size_t s = B.rows;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          T acc = accumulate ? C(i, j) : T{};
          for (std::size_t k = 0; k < s; ++k) acc += A(i, k) * B(k, j);
          C(i, j) = acc;
        }
      }
    };
  }

 private:
  void validate_shapes(ConstMatrixView<T> A, ConstMatrixView<T> B,
                       MatrixView<T> C) const {
    if (B.rows != s_ || B.cols != s_) {
      throw std::invalid_argument(
          "Device::gemm: right operand must be sqrt(m) x sqrt(m)");
    }
    if (A.cols != s_) {
      throw std::invalid_argument(
          "Device::gemm: left operand must have sqrt(m) columns");
    }
    if (C.rows != A.rows || C.cols != s_) {
      throw std::invalid_argument("Device::gemm: output shape mismatch");
    }
  }

  /// Shared body of `gemm` / `gemm_resident`. `first_hit` skips the load
  /// latency of the first issued call; `tracked` marks the split calls of
  /// a weak-mode chain as sharing one resident tile (only the first load
  /// pays l). Untracked calls charge l per call, the historical behavior.
  /// Both callers have already run validate_shapes.
  void gemm_charged(ConstMatrixView<T> A, ConstMatrixView<T> B,
                    MatrixView<T> C, bool accumulate, bool first_hit,
                    bool tracked) {
    const std::uint64_t n = A.rows;
    if (cfg_.allow_tall || n <= s_) {
      issue(A, B, C, accumulate, std::max<std::uint64_t>(n, s_), first_hit,
            tracked);
      return;
    }
    // Weak model: split the tall operand into square tiles (Section 5).
    bool hit = first_hit;
    for (std::size_t r0 = 0; r0 < n; r0 += s_) {
      const std::size_t rows = std::min(s_, static_cast<std::size_t>(n) - r0);
      issue(A.row_block(r0, rows), B, C.row_block(r0, rows), accumulate, s_,
            hit, tracked);
      hit = tracked;  // the tile stays resident for the rest of the split
    }
  }

  void issue(ConstMatrixView<T> A, ConstMatrixView<T> B, MatrixView<T> C,
             bool accumulate, std::uint64_t charged_rows, bool hit,
             bool tagged) {
    const auto t0 = std::chrono::steady_clock::now();
    backend_->run(A, B, C, accumulate, counters_);
    wall_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (hit) {
      counters_.charge_resident_hit(charged_rows, s_, cfg_.latency);
    } else {
      counters_.charge_tensor_call(charged_rows, s_, cfg_.latency);
    }
    if (tagged) ++counters_.tagged_calls;
    if (tracing_) trace_.record(charged_rows, s_, accumulate);
  }

  void notify_gemm(std::uint64_t key, bool tagged) {
    if (auto* obs = observer()) {
      obs->on_gemm(key, tagged, counters_, cache_.entries());
    }
  }

  Config cfg_;
  std::shared_ptr<GemmBackend<T>> backend_;
  TileCache cache_;
  std::size_t s_ = 0;
  Counters counters_;
  std::uint64_t wall_ns_ = 0;  ///< backend wall time; outside Counters
  Trace trace_;
  bool tracing_ = false;
  check::UnitObserver* observer_ = nullptr;  ///< explicit, non-owning
  check::OwnedChecker auto_checker_;         ///< TCU_CHECK auto-attach
  fault::UnitFaultInjector* fault_ = nullptr;  ///< non-owning injection seam
};

/// Closed-form model cost of one tall tensor call (for bench predictions).
inline std::uint64_t tensor_call_cost(std::uint64_t n, std::size_t m,
                                      std::uint64_t latency) {
  const auto s = static_cast<std::uint64_t>(exact_sqrt(m));
  return std::max(n, s) * s + latency;
}

/// Exact simulated tensor time one `gemm(A[n x s], B, C)` will charge on
/// `unit`: a tall call, or ceil(n/s) square calls on weak-model units.
/// Schedulers project with this so their dealing reproduces the serial
/// execute-then-pick greedy loop bit-for-bit.
template <typename T>
std::uint64_t projected_gemm_cost(const Device<T>& unit, std::uint64_t n) {
  const auto s = static_cast<std::uint64_t>(unit.tile_dim());
  if (unit.allows_tall() || n <= s) {
    return std::max(n, s) * s + unit.latency();
  }
  return ((n + s - 1) / s) * (unit.m() + unit.latency());
}

}  // namespace tcu
