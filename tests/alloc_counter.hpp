// Heap-allocation counter for allocation-free contracts.
//
// alloc_counter.cpp replaces the global operator new/delete (every form:
// plain, array, nothrow, aligned) with a counting forwarder. Replacement is
// program-wide, which is exactly what the tests want: ANY heap activity
// between two reads of allocations() (or of allocated_bytes()) shows up.
// A binary links it once, as the rcs_alloc_counter object library; every
// test in it then shares the hook. bench_sim links the same library.
#pragma once

#include <cstddef>

namespace rcs::test {

/// Number of operator new calls (any form) so far in this process.
[[nodiscard]] std::size_t allocations();
/// Bytes requested by those calls so far in this process.
[[nodiscard]] std::size_t allocated_bytes();

}  // namespace rcs::test
