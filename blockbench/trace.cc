#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>

namespace blockbench {

namespace {

struct ThreadBuffer {
  uint16_t index = 0;
  uint64_t next = 0;
  std::vector<Span> spans;
};

std::mutex g_mu;
// Buffers outlive their threads (pool workers are joined before the spans
// are collected), so ownership stays here.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->index = static_cast<uint16_t>(g_buffers.size());
    t_buffer->spans.reserve(1 << 16);
  }
  return *t_buffer;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEpoch: return "block.epoch";
    case Layer::kTask: return "pool.task";
    case Layer::kGen: return "gen";
    case Layer::kSource: return "source";
    case Layer::kWireEncode: return "wire.encode";
    case Layer::kWireDecode: return "wire.decode";
    case Layer::kSpConsume: return "sp.consume";
    case Layer::kSpEndEpoch: return "sp.end_epoch";
    case Layer::kControl: return "control";
    case Layer::kPoolWait: return "pool.wait";
    case Layer::kPoolBarrier: return "pool.barrier";
    case Layer::kPoolHandoff: return "pool.handoff";
    case Layer::kCkptExport: return "ckpt.export";
    case Layer::kCkptStore: return "ckpt.store";
    case Layer::kNumLayers: break;
  }
  return "?";
}

ScopedSpan::ScopedSpan(Layer layer, int32_t epoch, uint64_t parent,
                       int32_t source) {
  ThreadBuffer& b = Buffer();
  span_.id = (uint64_t{b.index} << 40) | ++b.next;
  span_.parent = parent;
  span_.epoch = epoch;
  span_.source = source;
  span_.thread = b.index;
  span_.layer = layer;
  allocs_at_start_ = ThreadAllocs();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  span_.allocs = ThreadAllocs() - allocs_at_start_;
  t_buffer->spans.push_back(span_);
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lk(g_mu);
  for (const auto& b : g_buffers) b->spans.clear();
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "epoch,thread,source,layer,id,parent,start_ns,end_ns,allocs\n");
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%d,%u,%d,%s,%" PRIu64 ",%" PRIu64 ",%" PRId64 ",%" PRId64
                 ",%" PRIu64 "\n",
                 s.epoch, unsigned{s.thread}, s.source, LayerName(s.layer),
                 s.id, s.parent, s.start_ns, s.end_ns, s.allocs);
  }
  return std::fclose(f) == 0;
}

}  // namespace blockbench
