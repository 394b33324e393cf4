/**
 * @file
 * Counting allocator for the allocation-regression tests.
 *
 * Linking xpro_alloc_count into a test binary replaces the global
 * operator new/delete family with counting forwards to malloc/free.
 * AllocScope then measures how many heap allocations (and bytes) a
 * region of code performed — the tool the hot-path tests use to prove the
 * steady-state serving and simulation loops allocate zero times per
 * event after warmup (DESIGN.md §15).
 *
 * The counter is process-global and atomic; scope the measured
 * region to a single thread (the allocation-free claims are about
 * the inline paths) and keep gtest assertions outside it.
 */

#ifndef XPRO_TESTS_ALLOC_COUNT_HH
#define XPRO_TESTS_ALLOC_COUNT_HH

#include <cstddef>

namespace xpro::testing
{

/** Heap allocations (any operator new) since program start. */
size_t allocCount();

/** Bytes requested from any operator new since program start. */
size_t allocBytes();

/** Counts allocations and bytes from construction to count() and
 *  bytes(). */
class AllocScope
{
  public:
    AllocScope() : _start(allocCount()), _startBytes(allocBytes()) {}

    size_t count() const { return allocCount() - _start; }
    size_t bytes() const { return allocBytes() - _startBytes; }

  private:
    size_t _start;
    size_t _startBytes;
};

} // namespace xpro::testing

#endif // XPRO_TESTS_ALLOC_COUNT_HH
