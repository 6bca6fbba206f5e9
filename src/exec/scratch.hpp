// Reusable per-worker kernel scratch.
//
// The par/ kernels and index leaf builds used to allocate short-lived
// `std::vector` temporaries on every call (sampled rows, bracket lists,
// iota index vectors).  Those temporaries have exact call-stack lifetime,
// so they now come from a thread-local bump arena: the first call on a
// worker thread reserves the chunks, every later call bumps warm memory
// and rewinds on return — zero steady-state heap allocations.
//
// Usage:
//   exec::ScratchScope scope;                    // rewinds at end of call
//   auto tmp = exec::scratch_vector<int>();      // vector on the arena
//
// Safety rules (they hold for the properly nested fork/join execution in
// exec::ThreadPool):
//   * Scopes nest LIFO per thread.  Work submitted to the pool runs the
//     child body on some worker's own arena, so a parent's scratch is
//     never rewound by a child.
//   * Scratch a parent frame allocated before a fork may be handed to
//     its parallel children: they may read it, and write *disjoint*
//     slots of it -- each child only its own (its rows, its block, its
//     job's results).  The parent frame outlives the branch join and
//     arena chunks never move, so the pointers stay valid; disjoint
//     slots are the same independence the simulated machine already
//     requires of `out`.  The parent allocates nothing from its scope
//     while children run.
//   * Never return scratch-backed containers from the function that
//     opened the scope; results that escape the entry point stay on
//     std::vector (or in a caller-owned span).
#pragma once

#include <vector>

#include "support/arena.hpp"

namespace pmonge::exec {

/// The calling thread's scratch arena (created on first use).
inline support::Arena& scratch_arena() {
  thread_local support::Arena arena(1 << 14);
  return arena;
}

/// RAII rewind of the calling thread's scratch arena; open one per
/// kernel entry point (or per recursion frame that allocates scratch).
class ScratchScope : public support::Arena::Scope {
 public:
  ScratchScope() : support::Arena::Scope(scratch_arena()) {}
};

/// A std::vector whose storage lives on the thread's scratch arena.
template <class T>
using ScratchVector = std::vector<T, support::ArenaAllocator<T>>;

template <class T>
ScratchVector<T> scratch_vector() {
  return ScratchVector<T>(support::ArenaAllocator<T>(scratch_arena()));
}

template <class T>
ScratchVector<T> scratch_vector(std::size_t n, const T& init = T()) {
  return ScratchVector<T>(n, init,
                          support::ArenaAllocator<T>(scratch_arena()));
}

}  // namespace pmonge::exec
