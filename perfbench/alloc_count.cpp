/**
 * @file
 * Process-wide heap-allocation counter: replaces the global operator
 * new/delete so harness.setup_allocs and harness.sim_allocs can count
 * what construction and simulation allocate.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hh"

namespace
{
std::atomic<uint64_t> g_allocations{0};
} // namespace

uint64_t
perfbench::allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
