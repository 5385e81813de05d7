#ifndef NBCP_PERFBENCH_TRACER_H_
#define NBCP_PERFBENCH_TRACER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The library modules the benchmark attributes time to. Each span is
/// opened around one call the benchmark makes into that module's public
/// functions.
enum class Layer : uint8_t {
  kCore,
  kDb,
  kProtocols,
  kSim,
  kObs,
  kRecovery,
  kRuntime,
  kCount,
};

const char* LayerName(Layer layer);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for the traced run. Spans nest on one thread
/// (the benchmark's driver thread); a span's self time is its duration
/// minus the time covered by its children. Storage is capped; self-time
/// accounting covers every span, stored or not.
class Tracer {
 public:
  explicit Tracer(size_t max_stored) : max_stored_(max_stored) {}

  void Begin(const char* name, Layer layer, uint64_t txn);
  void End();

  /// A child interval timed by the caller and not stored as a span (one
  /// per trace event would dwarf the rest): counts as `layer` self time
  /// and is subtracted from the enclosing span's self time.
  void AddLeaf(Layer layer, int64_t ns);

  /// Self times in microseconds of every span named `name`, in end order.
  const std::vector<double>& SelfUs(const char* name) const;

  int64_t LayerSelfNs(Layer layer) const {
    return layer_self_ns_[static_cast<size_t>(layer)];
  }

  /// Writes the stored spans as JSON lines (name, layer, start/end in ns
  /// since the first span, parent id or -1, txn). Returns false on I/O
  /// failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    int64_t start_ns;
    int64_t end_ns;
    int64_t id;
    int64_t parent;
    uint64_t txn;
  };
  struct Open {
    Span span;
    int64_t child_ns;
  };
  struct Samples {
    const char* name;
    std::vector<double> self_us;
  };

  size_t max_stored_;
  int64_t next_id_ = 0;
  int64_t epoch_ns_ = -1;
  size_t not_stored_ = 0;
  std::vector<Open> open_;
  std::vector<Span> stored_;
  std::vector<Samples> samples_;
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> layer_self_ns_{};
};

/// Opens a span for its lifetime; a null tracer makes it a no-op, which is
/// how the untraced run skips all of this.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, Layer layer, uint64_t txn = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, layer, txn);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // NBCP_PERFBENCH_TRACER_H_
