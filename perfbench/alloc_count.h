// Process-wide heap allocation counter: alloc_count.cc replaces the global
// operator new family, so every allocation the program makes (coroutine
// frames, std::function boxes, strings, containers) bumps one counter.

#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// Allocations since process start.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
