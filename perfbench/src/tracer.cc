#include "tracer.h"

#include <cstdio>
#include <cstring>

#include "heap.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCore:
      return "core";
    case Layer::kDb:
      return "db";
    case Layer::kProtocols:
      return "protocols";
    case Layer::kSim:
      return "sim";
    case Layer::kObs:
      return "obs";
    case Layer::kRecovery:
      return "recovery";
    case Layer::kRuntime:
      return "runtime";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Tracer::Begin(const char* name, Layer layer, uint64_t txn) {
  HeapPause pause;
  Open open;
  open.span.name = name;
  open.span.layer = layer;
  open.span.id = next_id_++;
  open.span.parent = open_.empty() ? -1 : open_.back().span.id;
  open.span.txn = txn;
  open.span.end_ns = 0;
  open.child_ns = 0;
  open_.push_back(open);
  // Stamp last, so the bookkeeping above is not charged to the span.
  open_.back().span.start_ns = NowNs();
  if (epoch_ns_ < 0) epoch_ns_ = open_.back().span.start_ns;
}

void Tracer::End() {
  const int64_t end = NowNs();
  HeapPause pause;
  Open open = open_.back();
  open_.pop_back();
  open.span.end_ns = end;
  const int64_t duration = end - open.span.start_ns;
  const int64_t self = duration - open.child_ns;
  layer_self_ns_[static_cast<size_t>(open.span.layer)] += self;
  if (!open_.empty()) open_.back().child_ns += duration;

  Samples* samples = nullptr;
  for (Samples& s : samples_) {
    if (std::strcmp(s.name, open.span.name) == 0) samples = &s;
  }
  if (samples == nullptr) {
    samples_.push_back(Samples{open.span.name, {}});
    samples = &samples_.back();
  }
  samples->self_us.push_back(static_cast<double>(self) / 1e3);

  if (stored_.size() < max_stored_) {
    stored_.push_back(open.span);
  } else {
    ++not_stored_;
  }
}

void Tracer::AddLeaf(Layer layer, int64_t ns) {
  layer_self_ns_[static_cast<size_t>(layer)] += ns;
  if (!open_.empty()) open_.back().child_ns += ns;
}

const std::vector<double>& Tracer::SelfUs(const char* name) const {
  static const std::vector<double> kEmpty;
  for (const Samples& s : samples_) {
    if (std::strcmp(s.name, name) == 0) return s.self_us;
  }
  return kEmpty;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\":%zu,\"not_stored\":%zu}\n", stored_.size(),
               not_stored_);
  for (const Span& s : stored_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"id\":%lld,\"parent\":%lld,\"txn\":%llu}\n",
                 s.name, LayerName(s.layer),
                 static_cast<long long>(s.start_ns - epoch_ns_),
                 static_cast<long long>(s.end_ns - epoch_ns_),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.txn));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
