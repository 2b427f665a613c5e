// Counting global allocator for the zero-allocation tests.
//
// Replaces every throwing and nothrow form of the global operator new and
// delete (plain, array, sized) with malloc/free plus a counter, so a
// measured window can assert how many heap allocations the code under test
// made. Every form is replaced: a form left to the runtime would allocate
// through the sanitizer's or the library's own operator new and come back
// through this file's delete, which ASan reports as an alloc-dealloc
// mismatch (std::stable_sort's buffer comes from the nothrow form).
//
// Replacement functions may not be inline, so include this header from
// exactly one translation unit of a test binary (each tests/*.cpp is its
// own binary).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace rr::test {

/// Heap allocations made through the global operator new in this binary.
inline std::atomic<std::uint64_t> heap_allocs{0};

inline void* counted_malloc(std::size_t n) noexcept {
  heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

inline void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc{};
}

}  // namespace rr::test

// Replacement allocation functions legitimately pair malloc with free; GCC
// cannot know that and flags the pairing as mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) { return rr::test::counted_new(n); }
void* operator new[](std::size_t n) { return rr::test::counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return rr::test::counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return rr::test::counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
