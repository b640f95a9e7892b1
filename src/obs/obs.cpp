#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace llhsc::obs {

namespace {

std::atomic<bool> g_span_capture{true};
std::atomic<uint64_t> g_next_seq{0};
std::atomic<uint64_t> g_next_tid{1};

using Clock = std::chrono::steady_clock;

Clock::time_point process_epoch() {
  // First use wins; every sink measures against the same zero, so event
  // streams from different sinks (session units, daemon requests) merge by
  // concatenation without timestamp translation.
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

struct ThreadContext {
  TraceSink* sink = nullptr;
  std::string unit;
  std::string scope;
};

ThreadContext& context() {
  thread_local ThreadContext ctx;
  return ctx;
}

}  // namespace

void set_enabled(bool on) {
  g_span_capture.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_span_capture.load(std::memory_order_relaxed); }

uint64_t now_us() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            process_epoch())
          .count());
}

uint64_t thread_id() {
  thread_local const uint64_t id =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceSink::record(Event e) {
  Shard& shard = shards_[thread_id() % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.events.push_back(std::move(e));
}

void TraceSink::extend(std::vector<Event> events) {
  if (events.empty()) return;
  Shard& shard = shards_[thread_id() % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.events.insert(shard.events.end(),
                      std::make_move_iterator(events.begin()),
                      std::make_move_iterator(events.end()));
}

std::vector<Event> TraceSink::snapshot() const {
  std::vector<Event> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.insert(out.end(), shard.events.begin(), shard.events.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.seq < b.seq;
  });
  return out;
}

std::vector<Event> TraceSink::take() {
  std::vector<Event> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.insert(out.end(), std::make_move_iterator(shard.events.begin()),
               std::make_move_iterator(shard.events.end()));
    shard.events.clear();
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.seq < b.seq;
  });
  return out;
}

TraceSink* current_sink() { return context().sink; }

const std::string& current_unit() { return context().unit; }

const std::string& current_scope() { return context().scope; }

ScopedSink::ScopedSink(TraceSink* sink) : prev_(context().sink) {
  context().sink = sink;
}

ScopedSink::~ScopedSink() { context().sink = prev_; }

ScopedUnit::ScopedUnit(std::string unit) : prev_(std::move(context().unit)) {
  context().unit = std::move(unit);
}

ScopedUnit::~ScopedUnit() { context().unit = std::move(prev_); }

ScopedScope::ScopedScope(std::string scope)
    : prev_(std::move(context().scope)) {
  context().scope = std::move(scope);
}

ScopedScope::~ScopedScope() { context().scope = std::move(prev_); }

Span::Span(const char* name, const char* category) {
  if (!enabled()) return;
  sink_ = context().sink;
  if (sink_ == nullptr) return;
  name_ = name;
  category_ = category;
  start_us_ = now_us();
}

void Span::arg(const char* key, std::string value) {
  if (sink_ == nullptr) return;
  args_.emplace_back(key, std::move(value));
}

Span::~Span() {
  if (sink_ == nullptr) return;
  const uint64_t end_us = now_us();
  Event e;
  e.kind = Event::Kind::kSpan;
  e.name = name_;
  e.category = category_;
  e.unit = context().unit;
  e.scope = context().scope;
  e.tid = thread_id();
  e.ts_us = start_us_;
  e.dur_us = end_us - start_us_;
  e.args = std::move(args_);
  e.seq = g_next_seq.fetch_add(1, std::memory_order_relaxed);
  sink_->record(std::move(e));
}

void count(const char* name, const char* category, int64_t delta) {
  if (delta == 0) return;
  TraceSink* sink = context().sink;
  if (sink == nullptr) return;
  Event e;
  e.kind = Event::Kind::kCounter;
  e.name = name;
  e.category = category;
  e.unit = context().unit;
  e.scope = context().scope;
  e.tid = thread_id();
  e.ts_us = now_us();
  e.delta = delta;
  e.seq = g_next_seq.fetch_add(1, std::memory_order_relaxed);
  sink->record(std::move(e));
}

void record_span(TraceSink& sink, const char* name, const char* category,
                 uint64_t start_us, uint64_t dur_us,
                 std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  Event e;
  e.kind = Event::Kind::kSpan;
  e.name = name;
  e.category = category;
  e.unit = context().unit;
  e.scope = context().scope;
  e.tid = thread_id();
  e.ts_us = start_us;
  e.dur_us = dur_us;
  e.args = std::move(args);
  e.seq = g_next_seq.fetch_add(1, std::memory_order_relaxed);
  sink.record(std::move(e));
}

}  // namespace llhsc::obs
