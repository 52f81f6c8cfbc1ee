#pragma once
// Outside-in task tracing for the pooled runtime.
//
// `LaneTracer` is a check::UnitObserver attached to one pool unit with
// Device::set_observer. The executor brackets every task on the unit's
// worker thread (on_task_begin fires after the task's dependency wait), so
// the tracer records one span per task there: wall-clock begin and end,
// and the unit's Device::wall_ns() delta, i.e. the time spent inside the
// GEMM backend. Spans stay in memory; the harness reads them from the
// submitting thread after the call's join, which orders every worker
// write before the read.
//
// `split_call` turns the spans of one call into the layer breakdown:
//   head       call start -> first task begins (dealing before any work)
//   tail       last task ends -> call returns (join wake-up, caller glue)
//   body       time inside task brackets, per lane
//   lane wait  time between the first and last task of the call, anywhere,
//              during which a lane ran no task (queue empty or dep wait)
// Per call, sum(body) + lane wait + p * (head + tail) equals p * call when
// the spans of each lane are disjoint and lie inside the call; `coverage`
// is that sum over p * call, so a value away from 1 flags spans that
// overlap or escape the caller's window.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/counters.hpp"
#include "core/device.hpp"
#include "core/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::int64_t begin_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  std::uint64_t backend_ns = 0;  ///< Device::wall_ns() delta inside the task
};

inline std::int64_t since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

template <typename T>
class LaneTracer final : public tcu::check::UnitObserver {
 public:
  LaneTracer(const tcu::Device<T>& unit, Clock::time_point origin)
      : unit_(unit), origin_(origin) {
    spans_.reserve(std::size_t{1} << 15);
  }

  void on_gemm(std::uint64_t, bool, const tcu::Counters&,
               const std::vector<std::uint64_t>&) override {}

  void on_task_begin(const std::vector<std::uint64_t>*, std::uint64_t, bool,
                     bool) override {
    open_.begin_ns = since(origin_, Clock::now());
    backend_at_begin_ = unit_.wall_ns();
  }

  void on_task_end(bool) override {
    open_.end_ns = since(origin_, Clock::now());
    open_.backend_ns = unit_.wall_ns() - backend_at_begin_;
    spans_.push_back(open_);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  const tcu::Device<T>& unit_;
  Clock::time_point origin_;
  Span open_;
  std::uint64_t backend_at_begin_ = 0;
  std::vector<Span> spans_;
};

/// One lane's spans for one call: the half-open index range [first, last).
struct LaneSlice {
  const std::vector<Span>* spans = nullptr;
  std::size_t first = 0;
  std::size_t last = 0;
};

struct CallSplit {
  double call_ns = 0;
  double head_ns = 0;
  double tail_ns = 0;
  double body_ns = 0;          ///< summed over lanes
  double backend_ns = 0;       ///< backend time inside brackets, all lanes
  double lane_wait_ns = 0;     ///< summed over lanes
  double max_lane_body_ns = 0;
  std::size_t tasks = 0;
  double coverage = 0;
};

inline CallSplit split_call(const std::vector<LaneSlice>& lanes,
                            std::int64_t call_begin, std::int64_t call_end) {
  CallSplit out;
  out.call_ns = static_cast<double>(call_end - call_begin);
  const double p = static_cast<double>(lanes.size());
  std::int64_t first = call_end;
  std::int64_t last = call_begin;
  for (const LaneSlice& lane : lanes) {
    for (std::size_t i = lane.first; i < lane.last; ++i) {
      first = std::min(first, (*lane.spans)[i].begin_ns);
      last = std::max(last, (*lane.spans)[i].end_ns);
    }
  }
  if (first >= last) {  // no task ran: the whole call is caller time
    out.head_ns = out.call_ns;
    out.coverage = 1.0;
    return out;
  }
  out.head_ns =
      static_cast<double>(std::max<std::int64_t>(0, first - call_begin));
  out.tail_ns = static_cast<double>(std::max<std::int64_t>(0, call_end - last));
  for (const LaneSlice& lane : lanes) {
    double body = 0;
    std::int64_t cursor = first;
    for (std::size_t i = lane.first; i < lane.last; ++i) {
      const Span& s = (*lane.spans)[i];
      body += static_cast<double>(s.end_ns - s.begin_ns);
      out.backend_ns += static_cast<double>(s.backend_ns);
      out.lane_wait_ns +=
          static_cast<double>(std::max<std::int64_t>(0, s.begin_ns - cursor));
      cursor = std::max(cursor, s.end_ns);
    }
    out.lane_wait_ns +=
        static_cast<double>(std::max<std::int64_t>(0, last - cursor));
    out.body_ns += body;
    out.max_lane_body_ns = std::max(out.max_lane_body_ns, body);
    out.tasks += lane.last - lane.first;
  }
  out.coverage =
      (out.body_ns + out.lane_wait_ns + p * (out.head_ns + out.tail_ns)) /
      (p * out.call_ns);
  return out;
}

}  // namespace perfbench
