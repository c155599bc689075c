// Global operator new/delete for the benchmark binary: every allocation
// bumps a thread-local counter, which the traced run reads around each layer
// call to report <layer>.allocs. The counts repeat exactly from run to run
// for a given seed, so they can back a count-based claim.

#include <cstdlib>
#include <new>

#include "trace.h"

namespace {

thread_local uint64_t t_allocs = 0;

void* Allocate(std::size_t n) {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, size);
}

}  // namespace

uint64_t blockbench::ThreadAllocs() { return t_allocs; }

void* operator new(std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, al);
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
