// GCC flags the malloc/free pairing inside the replaced operators as a
// mismatched allocation when it inlines them into std containers; the pairing
// is intentional and correct (new forwards to malloc, delete to free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

void count(std::size_t size) {
  ++g_allocations;
  g_allocated_bytes += size;
}
}  // namespace

std::size_t rcs::test::allocations() { return g_allocations.load(); }
std::size_t rcs::test::allocated_bytes() { return g_allocated_bytes.load(); }

void* operator new(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  count(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
