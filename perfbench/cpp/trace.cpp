#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

struct Buffer {
  std::vector<Span> spans;
  std::vector<Span> open;  // stack of open Scopes (id, session)
};

std::mutex registry_mutex;
// Owned here so a buffer outlives the worker thread that filled it.
std::vector<std::unique_ptr<Buffer>> registry;
std::atomic<std::uint32_t> next_id{1};
std::atomic<std::size_t> stored{0};

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1024);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

std::atomic<bool> Tracer::on_{false};

void Tracer::set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }

std::uint32_t Tracer::new_id() {
  if (!enabled()) return 0;
  if (stored.fetch_add(1, std::memory_order_relaxed) >= kCapacity) return 0;
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const Span& span) {
  if (span.id == 0) return;
  local_buffer().spans.push_back(span);
}

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lock(registry_mutex);
  std::vector<Span> all;
  for (const auto& buffer : registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mutex);
  for (const auto& buffer : registry) buffer->spans.clear();
  stored.store(0, std::memory_order_relaxed);
}

Tracer::Scope::Scope(const char* name, std::uint64_t session,
                     std::uint32_t parent) {
  if (!enabled()) return;
  span_.id = new_id();
  if (span_.id == 0) return;
  Buffer& buffer = local_buffer();
  const Span* enclosing = buffer.open.empty() ? nullptr : &buffer.open.back();
  span_.name = name;
  span_.session = session != 0 || enclosing == nullptr ? session
                                                      : enclosing->session;
  span_.parent = parent != 0 || enclosing == nullptr ? parent : enclosing->id;
  buffer.open.push_back(span_);
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  Buffer& buffer = local_buffer();
  buffer.open.pop_back();
  buffer.spans.push_back(span_);
}

namespace {

void accumulate(const std::vector<const Span*>& spans, SelfTimes& out) {
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (const Span* s : spans) {
    if (s->parent != 0) child_ns[s->parent] += s->end_ns - s->start_ns;
  }
  for (const Span* s : spans) {
    const auto it = child_ns.find(s->id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    out.self_ns[s->name] +=
        static_cast<double>(s->end_ns - s->start_ns - covered);
    ++out.calls[s->name];
  }
}

}  // namespace

std::map<std::uint64_t, SelfTimes> self_times_by_session(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> grouped;
  for (const Span& s : spans) grouped[s.session].push_back(&s);
  std::map<std::uint64_t, SelfTimes> out;
  for (const auto& [session, list] : grouped) accumulate(list, out[session]);
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,session,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%u,%u,%llu,%lld,%lld\n", s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.session),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
