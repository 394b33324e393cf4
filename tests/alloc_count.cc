#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_bytes{0};

/** Count one allocation of @p bytes. */
void
count(size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void *
countedAlloc(size_t bytes)
{
    count(bytes);
    void *p = std::malloc(bytes ? bytes : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(size_t bytes, size_t alignment)
{
    count(bytes);
    // aligned_alloc requires the size to be a multiple of the
    // alignment.
    const size_t rounded =
        (bytes + alignment - 1) / alignment * alignment;
    void *p = std::aligned_alloc(alignment,
                                 rounded ? rounded : alignment);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace xpro::testing
{

size_t
allocCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

size_t
allocBytes()
{
    return g_bytes.load(std::memory_order_relaxed);
}

} // namespace xpro::testing

// Replaceable global allocation functions: count, then forward to
// malloc/free. free() handles both plain and aligned blocks on the
// platforms this repo targets (glibc).

void *
operator new(std::size_t bytes)
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes)
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    count(bytes);
    return std::malloc(bytes ? bytes : 1);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    count(bytes);
    return std::malloc(bytes ? bytes : 1);
}

void *
operator new(std::size_t bytes, std::align_val_t alignment)
{
    return countedAlignedAlloc(bytes,
                               static_cast<size_t>(alignment));
}

void *
operator new[](std::size_t bytes, std::align_val_t alignment)
{
    return countedAlignedAlloc(bytes,
                               static_cast<size_t>(alignment));
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

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
