// In-memory span recorder for the traced benchmark run.
//
// A span marks one call into a layer's public function: name, start, end,
// the span that caused it, and the session it belongs to. Spans live in
// per-thread buffers while the run executes and are merged and written
// out when it ends. With tracing off a Scope costs one relaxed load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // string literal: names are static
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t session = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled() {
    return on_.load(std::memory_order_relaxed);
  }
  /// Allocates a span id, or 0 when tracing is off or kCapacity spans are
  /// already held (the trace then covers the run's first sessions).
  static std::uint32_t new_id();
  /// Stores a finished span (ignored when its id is 0).
  static void record(const Span& span);
  /// Merges every thread's buffer. Call only while no thread records.
  static std::vector<Span> collect();
  static void clear();
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;

  /// RAII span around one layer call. `session` = 0 and `parent` = 0 take
  /// those of this thread's innermost open Scope.
  class Scope {
   public:
    Scope(const char* name, std::uint64_t session, std::uint32_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Span span_;
  };

 private:
  static std::atomic<bool> on_;
};

/// Per-session layer accounting derived from spans.
struct SelfTimes {
  /// Self time (span minus the time its children cover), summed by name.
  std::map<std::string, double> self_ns;
  std::map<std::string, std::size_t> calls;
};

/// Self times for every session (keyed by session id).
std::map<std::uint64_t, SelfTimes> self_times_by_session(
    const std::vector<Span>& spans);

/// Writes spans as CSV (name,id,parent,session,start_ns,end_ns).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
