// Heap-allocation counter for allocation-free contracts.
//
// alloc_counter.cpp replaces the global operator new/delete with a counting
// forwarder. Replacement is program-wide, which is exactly what the tests
// want: ANY heap activity between two reads of allocations() (or of
// allocated_bytes()) shows up. Link
// the .cpp into a test binary once; every test in it then shares the hook.
#pragma once

#include <cstddef>

namespace rcs::test {

/// Number of operator new / new[] calls so far in this process.
[[nodiscard]] std::size_t allocations();
/// Bytes requested by those calls so far in this process.
[[nodiscard]] std::size_t allocated_bytes();

}  // namespace rcs::test
