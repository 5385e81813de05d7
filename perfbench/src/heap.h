#ifndef NBCP_PERFBENCH_HEAP_H_
#define NBCP_PERFBENCH_HEAP_H_

#include <cstdint>

namespace perfbench {

/// Heap traffic seen by the replacement operator new/delete in heap.cc, in
/// requested bytes: a block adds and later removes the same amount from
/// `live_bytes`.
struct HeapCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
  int64_t live_bytes = 0;
};

/// Starts or stops counting (process-wide). Counting is off by default and
/// is switched on only around traced episodes.
void SetHeapCounting(bool on);

/// Counts since the last ResetHeapCounts().
HeapCounts ReadHeapCounts();
void ResetHeapCounts();

/// While alive, allocations made by this thread are not counted: the
/// benchmark wraps its own bookkeeping in one so only the system's heap
/// traffic shows.
class HeapPause {
 public:
  HeapPause();
  ~HeapPause();
  HeapPause(const HeapPause&) = delete;
  HeapPause& operator=(const HeapPause&) = delete;
};

}  // namespace perfbench

#endif  // NBCP_PERFBENCH_HEAP_H_
