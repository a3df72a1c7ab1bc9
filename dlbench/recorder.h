// Measurement from outside the program: a per-thread recorder, a
// filter decorator and a stream source that time the calls the runtime
// makes into the dlacep and stream layers.
//
// Nothing here changes what the wrapped objects compute. MeteredFilter
// forwards the online runtime's two marking entry points to the filter
// it borrows (so the network keeps its arena reuse and batched trunk),
// and BenchSource hands out the stream's events unchanged. In untraced
// runs they only note when each window's marks returned and when each
// event was read; with tracing on the filter also keeps one span per
// call.

#ifndef DLBENCH_RECORDER_H_
#define DLBENCH_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "analysis.h"
#include "dlacep/filter.h"
#include "runtime/source.h"
#include "stream/stream.h"

namespace dlbench {

/// Seconds on one process-wide steady clock.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// What one thread saw during a repetition.
struct ThreadLog {
  uint32_t thread = 0;
  std::vector<Span> spans;  ///< parent indices refer to the merged list
  /// (index of the window's last event, time its marks returned).
  std::vector<std::pair<size_t, double>> windows_marked;
  /// (dispatch sequence, time a worker picked the window up).
  std::vector<std::pair<uint64_t, double>> windows_started;
  uint64_t filter_calls = 0;
  uint64_t filter_windows = 0;
  double filter_busy = 0.0;
};

/// Per-thread logs without locks on the hot path: a thread registers
/// its log once per repetition and appends to it alone. Reset() and
/// Logs() must only run while no other thread records (between Run
/// calls, when the runtime's threads are idle or joined).
class Recorder {
 public:
  ThreadLog& Local() {
    thread_local Cache cache;
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (cache.generation != generation) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      logs_.back()->thread = static_cast<uint32_t>(logs_.size() - 1);
      cache.log = logs_.back().get();
      cache.generation = generation;
    }
    return *cache.log;
  }

  void Reset(bool tracing, uint32_t run) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.clear();
    tracing_ = tracing;
    run_ = run;
    generation_.store(NextGeneration(), std::memory_order_release);
  }

  bool tracing() const { return tracing_; }
  uint32_t run() const { return run_; }

  std::vector<const ThreadLog*> Logs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const ThreadLog*> out;
    for (const auto& log : logs_) out.push_back(log.get());
    return out;
  }

 private:
  struct Cache {
    uint64_t generation = 0;
    ThreadLog* log = nullptr;
  };
  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  bool tracing_ = false;
  uint32_t run_ = 0;
  std::atomic<uint64_t> generation_{0};
};

/// Times every call the runtime makes into the filter it borrows.
class MeteredFilter : public dlacep::StreamFilter {
 public:
  MeteredFilter(const dlacep::StreamFilter* inner, Recorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string name() const override { return inner_->name(); }
  std::vector<int> Mark(const dlacep::EventStream& stream,
                        dlacep::WindowRange range) const override {
    return inner_->Mark(stream, range);
  }

  std::vector<int> MarkOnline(const dlacep::EventStream& window,
                              size_t stream_begin,
                              dlacep::InferenceContext* ctx,
                              double threshold_boost) const override {
    const double start = Now();
    std::vector<int> marks =
        inner_->MarkOnline(window, stream_begin, ctx, threshold_boost);
    const double end = Now();
    ThreadLog& log = recorder_->Local();
    log.windows_marked.emplace_back(
        stream_begin + window.size() - (window.size() > 0 ? 1 : 0), end);
    Account(&log, "MarkOnline", start, end, 1);
    return marks;
  }

  void MarkBatchOnline(std::span<const dlacep::OnlineWindow> windows,
                       dlacep::InferenceContext* ctx,
                       std::vector<int>* marks) const override {
    const double start = Now();
    inner_->MarkBatchOnline(windows, ctx, marks);
    const double end = Now();
    ThreadLog& log = recorder_->Local();
    for (const dlacep::OnlineWindow& w : windows) {
      const size_t size = w.events->size();
      log.windows_marked.emplace_back(
          w.stream_begin + size - (size > 0 ? 1 : 0), end);
    }
    Account(&log, "MarkBatchOnline", start, end, windows.size());
  }

 private:
  void Account(ThreadLog* log, const char* call, double start, double end,
               size_t windows) const {
    ++log->filter_calls;
    log->filter_windows += windows;
    log->filter_busy += end - start;
    if (recorder_->tracing()) {
      Span span;
      span.layer = "dlacep";
      span.name = call;
      span.start = start;
      span.end = end;
      span.thread = log->thread;
      span.run = recorder_->run();
      log->spans.push_back(std::move(span));
    }
  }

  const dlacep::StreamFilter* inner_;  ///< not owned
  Recorder* recorder_;                 ///< not owned
};

/// Replays a borrowed stream through a ReplaySource as fast as the
/// runtime pulls (closed loop) and records when each Read() returned,
/// when the first one was called and when end of stream was reported.
class BenchSource : public dlacep::StreamSource {
 public:
  explicit BenchSource(const dlacep::EventStream* stream)
      : inner_(stream), size_(stream->size()), returned_(stream->size()) {}

  std::shared_ptr<const dlacep::Schema> schema() const override {
    return inner_.schema();
  }

  dlacep::Status Read(dlacep::Event* out) override {
    const double start = Now();
    if (next_ == 0) first_read_ = start;
    if (next_ >= size_) {
      if (end_of_stream_ < 0.0) end_of_stream_ = start;
      return dlacep::Status::OutOfRange("end of stream");
    }
    const dlacep::Status status = inner_.Read(out);
    const double done = Now();
    read_busy_ += done - start;
    returned_[next_++] = done;
    return status;
  }

  double first_read() const { return first_read_; }
  double end_of_stream() const { return end_of_stream_; }
  double read_busy() const { return read_busy_; }
  size_t events_read() const { return next_; }
  /// Time Read() returned event i, for i < events_read().
  const std::vector<double>& returned() const { return returned_; }

 private:
  dlacep::ReplaySource inner_;
  size_t size_;
  size_t next_ = 0;
  double first_read_ = 0.0;
  double end_of_stream_ = -1.0;
  double read_busy_ = 0.0;
  std::vector<double> returned_;
};

}  // namespace dlbench

#endif  // DLBENCH_RECORDER_H_
