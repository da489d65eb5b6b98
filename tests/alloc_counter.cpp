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

// Every form of the global operator new family bumps one counter: plain,
// array, nothrow and aligned. Delegating to malloc keeps the hook
// semantics-free.
namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

void count(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  count(size);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count(size);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(alignment,
                                   (size + alignment - 1) & ~(alignment - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

std::size_t rcs::test::allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
std::size_t rcs::test::allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
