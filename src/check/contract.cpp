// Implementation of the (m, l)-TCU contract checker (see contract.hpp).
//
// The checker is exact, not statistical: every expected delta below is
// the closed-form consequence of the model rules in core/device.hpp.
// One `gemm`/`gemm_resident` invocation issues `dcalls` model calls
// (1 in tall mode, ceil(n/sqrt(m)) in the weak model) and the split
// calls of one weak-mode tagged invocation share their tile's single
// load — so a tagged invocation whose key was resident realizes
// `dcalls` hits, a tagged miss realizes `dcalls - 1`, and an untagged
// invocation realizes none and pays the latency on every call.

#include "check/contract.hpp"

#include <sstream>

namespace tcu::check {

namespace {

thread_local int g_allow_untagged_depth = 0;

std::string format_keys(const std::vector<std::uint64_t>& keys) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i) out << ", ";
    out << "0x" << std::hex << keys[i] << std::dec;
  }
  out << "]";
  return out.str();
}

std::string format_key(std::uint64_t key) {
  std::ostringstream out;
  out << "0x" << std::hex << key << std::dec;
  return out.str();
}

}  // namespace

AllowUntaggedClobber::AllowUntaggedClobber() { ++g_allow_untagged_depth; }
AllowUntaggedClobber::~AllowUntaggedClobber() { --g_allow_untagged_depth; }
bool AllowUntaggedClobber::active() { return g_allow_untagged_depth > 0; }

UnitObserver* make_auto_checker(const char* name, std::uint64_t latency,
                                std::size_t tile_dim, bool allow_tall,
                                std::size_t cache_capacity) {
  auto* checker =
      new UnitChecker(name, latency, tile_dim, allow_tall, cache_capacity);
  // A device observes its checker from birth: all-zero counters, empty
  // resident set.
  checker->sync(Counters{}, {});
  return checker;
}

void destroy_checker(UnitObserver* checker) { delete checker; }

UnitChecker::UnitChecker(std::string name, std::uint64_t latency,
                         std::size_t tile_dim, bool allow_tall,
                         std::size_t cache_capacity)
    : name_(std::move(name)),
      latency_(latency),
      tile_dim_(tile_dim),
      allow_tall_(allow_tall),
      shadow_(cache_capacity) {}

void UnitChecker::fail(const std::string& msg) const {
  throw ContractError("tcu-check[" + name_ + "]: " + msg);
}

void UnitChecker::sync(const Counters& counters,
                       const std::vector<std::uint64_t>& cache_entries) {
  shadow_.clear();
  for (const std::uint64_t key : cache_entries) shadow_.touch(key);
  synced_ = true;
  last_ = counters;
  base_ = counters;
  checked_calls_ = 0;
  mode_ = TaskMode::kNone;
  declared_.clear();
  observed_.clear();
  predicted_hits_ = 0;
  task_realized_hits_ = 0;
  task_baseline_valid_ = false;
  needs_anchor_ = false;
}

bool UnitChecker::clobber_sanctioned() const {
  if (AllowUntaggedClobber::active()) return true;
  // A chain-free task's calls were declared untagged wholesale: the
  // dealer dropped the lane's prediction mirror when it enqueued.
  if (mode_ == TaskMode::kUntagged) return true;
  // An affine task may declare individual untagged calls as 0 entries.
  if (mode_ == TaskMode::kAffine && !observed_.empty() &&
      observed_.size() - 1 < declared_.size() &&
      declared_[observed_.size() - 1] == 0) {
    return true;
  }
  return false;
}

void UnitChecker::on_gemm(std::uint64_t key, bool tagged,
                          const Counters& after,
                          const std::vector<std::uint64_t>& cache_entries) {
  if (mode_ != TaskMode::kNone) observed_.push_back(tagged ? key : 0);

  if (needs_anchor_ && mode_ == TaskMode::kNone) {
    fail("tensor call issued on a stale resident set: a failed task "
         "abandoned its declared chain and no evict_all re-anchor has run");
  }

  if (!synced_) {
    // Desynced (observer churn): adopt the device's state and resume
    // exact checking from the next event. The task bracket, if any, is
    // preserved — chain conformance needs no shadow state — but hit
    // predictions against the pre-desync mirror are off (the task began
    // with task_baseline_valid_ == false).
    shadow_.clear();
    for (const std::uint64_t entry : cache_entries) shadow_.touch(entry);
    synced_ = true;
    last_ = after;
    base_ = after;
    return;
  }

  if (after.tensor_calls < last_.tensor_calls) {
    fail("counters went backwards (device mutated outside the observed "
         "event stream; reset() without notification?)");
  }
  const std::uint64_t dcalls = after.tensor_calls - last_.tensor_calls;
  if (dcalls == 0) fail("a gemm completed without charging a tensor call");
  if (allow_tall_ && dcalls != 1) {
    fail("a tall-mode gemm charged " + std::to_string(dcalls) +
         " model calls; tall mode issues exactly one");
  }

  std::uint64_t expect_hits = 0;
  std::uint64_t expect_evictions = 0;
  std::uint64_t expect_paid = 0;
  if (tagged) {
    bool evicted = false;
    const bool hit = shadow_.touch(key, &evicted);
    if (hit && mode_ != TaskMode::kNone) ++task_realized_hits_;
    expect_hits = hit ? dcalls : dcalls - 1;
    expect_evictions = evicted ? 1 : 0;
    expect_paid = hit ? 0 : latency_;
  } else {
    if (shadow_.size() > 0 && !clobber_sanctioned()) {
      fail("untagged gemm clobbered a live resident set " +
           format_keys(shadow_.entries()) +
           "; tag the call, declare it in the task's chain, or allowlist "
           "the site with check::AllowUntaggedClobber");
    }
    shadow_.clear();
    expect_paid = latency_ * dcalls;
  }
  const std::uint64_t expect_saved = latency_ * dcalls - expect_paid;

  const auto delta = [&](std::uint64_t now, std::uint64_t before,
                         std::uint64_t expect, const char* what) {
    if (now - before != expect) {
      fail(std::string(what) + " delta " + std::to_string(now - before) +
           " does not match the model's expected " + std::to_string(expect) +
           " for " + (tagged ? "tagged key " + format_key(key) : "an untagged call"));
    }
  };
  delta(after.resident_hits, last_.resident_hits, expect_hits,
        "resident_hits");
  delta(after.evictions, last_.evictions, expect_evictions, "evictions");
  delta(after.latency_time, last_.latency_time, expect_paid, "latency_time");
  delta(after.latency_saved, last_.latency_saved, expect_saved,
        "latency_saved");
  delta(after.tagged_calls, last_.tagged_calls, tagged ? dcalls : 0,
        "tagged_calls");

  if (cache_entries != shadow_.entries()) {
    fail("resident set diverged from the shadow replay: device holds " +
         format_keys(cache_entries) + ", shadow expects " +
         format_keys(shadow_.entries()));
  }

  check_standing(after);
  last_ = after;
  ++checked_calls_;
}

void UnitChecker::on_evict_all() {
  shadow_.clear();
  needs_anchor_ = false;
}

void UnitChecker::on_reset() {
  sync(Counters{}, {});
}

void UnitChecker::on_desync() {
  synced_ = false;
  mode_ = TaskMode::kNone;
  declared_.clear();
  observed_.clear();
  needs_anchor_ = false;
}

void UnitChecker::on_task_begin(const std::vector<std::uint64_t>* chain,
                                std::uint64_t predicted_hits, bool affine,
                                bool hits_valid) {
  if (mode_ != TaskMode::kNone) {
    fail("a task began while another task was still active on this unit");
  }
  mode_ = affine ? TaskMode::kAffine : TaskMode::kUntagged;
  declared_ = chain ? *chain : std::vector<std::uint64_t>{};
  observed_.clear();
  predicted_hits_ = predicted_hits;
  task_realized_hits_ = 0;
  // Hit predictions are only meaningful when the dealer's mirror tracked
  // this lane from a common anchor: not in the grace window behind a
  // failed task, not before the checker adopted the device's state, and
  // not when the executor itself voided the replay (a fault-recovery
  // retry or a redeal onto a lane the original replay never saw).
  task_baseline_valid_ = synced_ && !needs_anchor_ && hits_valid;
}

void UnitChecker::on_task_end(bool failed) {
  const TaskMode mode = mode_;
  mode_ = TaskMode::kNone;
  if (mode == TaskMode::kNone) {
    fail("a task ended on this unit without a matching begin");
  }
  if (failed) {
    // The declared chain was abandoned mid-flight. Later tasks already
    // queued on this lane run in a documented grace window; the executor
    // re-anchors both sides (evict_all) at the join barrier, which
    // clears this flag through on_evict_all.
    needs_anchor_ = true;
    return;
  }
  if (mode == TaskMode::kAffine) {
    const std::size_t common = std::min(declared_.size(), observed_.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (declared_[i] != observed_[i]) {
        fail("declared chain mismatch at call #" + std::to_string(i) +
             ": declared " + format_key(declared_[i]) + ", task issued " +
             format_key(observed_[i]) + " (declared " +
             format_keys(declared_) + ", issued " + format_keys(observed_) +
             ")");
      }
    }
    if (observed_.size() != declared_.size()) {
      fail("declared chain covers " + std::to_string(declared_.size()) +
           " calls but the task issued " + std::to_string(observed_.size()) +
           " (declared " + format_keys(declared_) + ", issued " +
           format_keys(observed_) + ")");
    }
    if (task_baseline_valid_ && task_realized_hits_ != predicted_hits_) {
      fail("the dealer predicted " + std::to_string(predicted_hits_) +
           " resident hits for this task but it realized " +
           std::to_string(task_realized_hits_) +
           " (prediction mirror diverged from the unit)");
    }
  } else {
    for (const std::uint64_t key : observed_) {
      if (key != 0) {
        fail("tagged call " + format_key(key) +
             " issued inside a task with no declared chain; "
             "residency-tagged work must list its keys in TaskSpec::chain");
      }
    }
  }
}

void UnitChecker::on_join(const std::vector<std::uint64_t>& mirror_entries) {
  if (mode_ != TaskMode::kNone) {
    fail("join barrier reached this unit while a task was still active");
  }
  if (!synced_ || needs_anchor_) return;
  if (mirror_entries != shadow_.entries()) {
    fail("at join, the dealer's prediction mirror " +
         format_keys(mirror_entries) + " diverged from the unit's resident "
         "set " + format_keys(shadow_.entries()));
  }
  verify();
}

void UnitChecker::verify() const {
  if (!synced_) return;
  check_standing(last_);
}

void UnitChecker::check_standing(const Counters& now) const {
  // Conservation law: every issued call adds exactly l to latency_time
  // (a load) or latency_saved (a resident hit), never both, never
  // neither.
  const std::uint64_t paid_and_saved = (now.latency_time - base_.latency_time) +
                                       (now.latency_saved - base_.latency_saved);
  const std::uint64_t calls = now.tensor_calls - base_.tensor_calls;
  if (paid_and_saved != calls * latency_) {
    fail("latency conservation law violated: latency_time + latency_saved "
         "grew by " + std::to_string(paid_and_saved) + " over " +
         std::to_string(calls) + " calls with l = " +
         std::to_string(latency_) + " (expected " +
         std::to_string(calls * latency_) + ")");
  }
  const std::uint64_t hits = now.resident_hits - base_.resident_hits;
  const std::uint64_t tagged = now.tagged_calls - base_.tagged_calls;
  if (hits > tagged) {
    fail("resident_hits grew by " + std::to_string(hits) +
         " but only " + std::to_string(tagged) +
         " tagged calls were issued (hits require tags)");
  }
}

}  // namespace tcu::check
