#include "common/memprobe.h"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "common/events.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace fairgen {
namespace memprobe {

namespace {

/// Reads a "<key>:  <n> kB" line from /proc/self/status and returns the
/// value in bytes, or 0 when the file or key is unavailable (non-procfs
/// platforms).
uint64_t ProcStatusBytes(const char* key) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  uint64_t bytes = 0;
  char line[256];
  size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') {
      continue;
    }
    unsigned long long kb = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &kb) == 1) {
      bytes = static_cast<uint64_t>(kb) * 1024;
    }
    break;
  }
  std::fclose(file);
  return bytes;
}

}  // namespace

uint64_t CurrentRssBytes() { return ProcStatusBytes("VmRSS"); }

uint64_t PeakRssBytes() {
  uint64_t bytes = ProcStatusBytes("VmHWM");
  if (bytes != 0) return bytes;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

ByteCounter& NnBytes() {
  // Leaked singleton: FloatBuffer deallocations can run in static
  // destructors, so the counter must outlive every container charging it.
  static ByteCounter* counter = new ByteCounter();
  return *counter;
}

ByteCounter& TransitionBytes() {
  static ByteCounter* counter = new ByteCounter();
  return *counter;
}

namespace internal {
namespace {

// Freed buffers of kCachedBytes or more, kept by the freeing thread for
// the next allocation of the same size and alignment (see AlignedNew).
class BufferCache {
 public:
  ~BufferCache() {
    destroyed_ = true;
    for (Slot& slot : slots_) {
      if (slot.p != nullptr) {
        ::operator delete(slot.p, std::align_val_t{slot.alignment});
      }
    }
  }

  void* Take(size_t bytes, size_t alignment) {
    if (destroyed_) return nullptr;
    for (Slot& slot : slots_) {
      if (slot.p != nullptr && slot.bytes == bytes &&
          slot.alignment == alignment) {
        cached_bytes_ -= bytes;
        return std::exchange(slot.p, nullptr);
      }
    }
    return nullptr;
  }

  bool Put(void* p, size_t bytes, size_t alignment) {
    if (destroyed_ || bytes > kMaxBlockBytes ||
        cached_bytes_ + bytes > kMaxCachedBytes) {
      return false;
    }
    for (Slot& slot : slots_) {
      if (slot.p == nullptr) {
        slot = {p, bytes, alignment};
        cached_bytes_ += bytes;
        return true;
      }
    }
    return false;
  }

 private:
  // A walk's tape frees a few logits-sized blocks; larger blocks (whole
  // tables) are freed once per call and are not worth holding.
  static constexpr size_t kMaxBlockBytes = size_t{256} << 10;
  static constexpr size_t kMaxCachedBytes = size_t{1} << 20;
  struct Slot {
    void* p = nullptr;
    size_t bytes = 0;
    size_t alignment = 0;
  };
  Slot slots_[16];
  size_t cached_bytes_ = 0;
  // Blocks freed during thread exit, after the destructor ran, go to the
  // heap. Reading a destroyed trivially-typed member is benign here.
  bool destroyed_ = false;
};

thread_local BufferCache t_buffer_cache;

}  // namespace

void* AlignedNew(size_t bytes, size_t alignment) {
  if (bytes >= kCachedBytes) {
    if (void* p = t_buffer_cache.Take(bytes, alignment)) return p;
  }
  return ::operator new(bytes, std::align_val_t{alignment});
}

void AlignedDelete(void* p, size_t bytes, size_t alignment) noexcept {
  if (bytes >= kCachedBytes && t_buffer_cache.Put(p, bytes, alignment)) {
    return;
  }
  ::operator delete(p, std::align_val_t{alignment});
}

}  // namespace internal

void Sample(std::string_view stage) {
  const uint64_t rss_current = CurrentRssBytes();
  const uint64_t rss_peak = PeakRssBytes();
  const ByteCounter& nn = NnBytes();
  const uint64_t nn_live = nn.live();

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry.GetGauge("mem.rss_current_bytes")
      .Set(static_cast<double>(rss_current));
  registry.GetGauge("mem.rss_peak_bytes").Set(static_cast<double>(rss_peak));
  registry.GetGauge("nn.bytes_live").Set(static_cast<double>(nn_live));
  registry.GetGauge("nn.bytes_peak").Set(static_cast<double>(nn.peak()));
  const ByteCounter& transition = TransitionBytes();
  registry.GetGauge("transition.bytes_live")
      .Set(static_cast<double>(transition.live()));
  registry.GetGauge("transition.bytes_peak")
      .Set(static_cast<double>(transition.peak()));

  // The step is a process-wide sample index, so repeated samples line up
  // across the two series; the Perfetto placement uses the per-point
  // timestamp, not the step.
  static std::atomic<uint64_t> sample_index{0};
  const double step = static_cast<double>(
      sample_index.fetch_add(1, std::memory_order_relaxed));
  registry.GetSeries("mem.rss_bytes")
      .Append(step, static_cast<double>(rss_current));
  registry.GetSeries("nn.bytes").Append(step, static_cast<double>(nn_live));

  // The probe call sites mark the pipeline stage boundaries
  // (load/fit/generate/exit), which makes them the natural source of
  // `stage` records for the run-event journal — and a progress signal
  // for the watchdog's stall rule.
  events::Event event;
  event.type = events::Type::kStage;
  event.name = std::string(stage);
  event.fields = {{"rss_bytes", static_cast<double>(rss_current)},
                  {"nn_bytes_live", static_cast<double>(nn_live)}};
  events::Journal::Global().Emit(std::move(event));

  FAIRGEN_LOG(DEBUG) << "memprobe[" << std::string(stage)
                     << "]: rss=" << rss_current << "B peak=" << rss_peak
                     << "B nn_live=" << nn_live << "B";
}

}  // namespace memprobe
}  // namespace fairgen
