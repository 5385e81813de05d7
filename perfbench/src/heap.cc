// Replacement global operator new/delete for the benchmark binary. They
// forward to malloc/free and, while counting is on, record the number and
// requested size of blocks handed out and freed, so the traced run can
// report heap allocations per transaction without touching the library.
#include "heap.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<int64_t> g_live{0};
thread_local int t_paused = 0;

bool Counting() {
  return t_paused == 0 && g_on.load(std::memory_order_relaxed);
}

// Each block carries its requested size in a header just below the pointer
// handed out, so a free subtracts exactly what the allocation added (the
// allocator's own rounding, which depends on heap history, never shows).
constexpr size_t kHeader = alignof(std::max_align_t);

void NoteAlloc(size_t size) {
  if (!Counting()) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  g_live.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
}

void NoteFree(size_t size) {
  if (!Counting()) return;
  g_live.fetch_sub(static_cast<int64_t>(size), std::memory_order_relaxed);
}

void* Place(void* block, size_t offset, size_t size) {
  if (block == nullptr) throw std::bad_alloc();
  char* user = static_cast<char*>(block) + offset;
  std::memcpy(user - sizeof(size_t), &size, sizeof(size_t));
  NoteAlloc(size);
  return user;
}

size_t SizeOf(void* user) {
  size_t size = 0;
  std::memcpy(&size, static_cast<char*>(user) - sizeof(size_t),
              sizeof(size_t));
  return size;
}

void* Allocate(size_t size) {
  return Place(std::malloc(size + kHeader), kHeader, size);
}

void* AllocateAligned(size_t size, std::align_val_t align) {
  const size_t a = std::max(static_cast<size_t>(align), kHeader);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const size_t total = (size + a + a - 1) / a * a;
  return Place(std::aligned_alloc(a, total), a, size);
}

void Release(void* user) {
  if (user == nullptr) return;
  NoteFree(SizeOf(user));
  std::free(static_cast<char*>(user) - kHeader);
}

void ReleaseAligned(void* user, std::align_val_t align) {
  if (user == nullptr) return;
  NoteFree(SizeOf(user));
  std::free(static_cast<char*>(user) -
            std::max(static_cast<size_t>(align), kHeader));
}

}  // namespace

void SetHeapCounting(bool on) { g_on.store(on, std::memory_order_relaxed); }

HeapCounts ReadHeapCounts() {
  HeapCounts c;
  c.allocs = g_allocs.load(std::memory_order_relaxed);
  c.bytes = g_bytes.load(std::memory_order_relaxed);
  c.live_bytes = g_live.load(std::memory_order_relaxed);
  return c;
}

void ResetHeapCounts() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
  g_live.store(0, std::memory_order_relaxed);
}

HeapPause::HeapPause() { ++t_paused; }
HeapPause::~HeapPause() { --t_paused; }

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateAligned;
using perfbench::Release;
using perfbench::ReleaseAligned;

void* operator new(size_t size) { return Allocate(size); }
void* operator new[](size_t size) { return Allocate(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  ReleaseAligned(p, a);
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  ReleaseAligned(p, a);
}
void operator delete(void* p, size_t, std::align_val_t a) noexcept {
  ReleaseAligned(p, a);
}
void operator delete[](void* p, size_t, std::align_val_t a) noexcept {
  ReleaseAligned(p, a);
}
