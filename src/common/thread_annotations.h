#ifndef STAR_COMMON_THREAD_ANNOTATIONS_H_
#define STAR_COMMON_THREAD_ANNOTATIONS_H_

// Compile-time concurrency contracts.
//
// Two families of annotations live here:
//
//  1. Clang Thread Safety Analysis attributes (STAR_CAPABILITY,
//     STAR_GUARDED_BY, STAR_REQUIRES, ...).  Under clang with
//     -Wthread-safety (the STAR_ANALYZE=ON build) every lock acquisition
//     and guarded-field access is checked against these declarations on
//     every line of every build — unlike TSan, which only sees the
//     schedules a test happens to execute.  Under other compilers they
//     expand to nothing.
//
//  2. STAR-specific contract tags (STAR_HOT_PATH, STAR_CACHELINE_ALIGNED)
//     enforced by tools/star_lint.py: hot-path functions must not allocate
//     or block and may only call hot-tagged (or explicitly escaped)
//     functions; cross-thread counter structs must be cache-line padded.
//
// Capability wrappers that make family (1) effective on libstdc++ (whose
// std::mutex / std::lock_guard carry no annotations) live in
// common/mutex.h (star::Mutex) and common/spinlock.h (star::SpinLock).

// NOLINTBEGIN(bugprone-macro-parentheses): attribute arguments are lock
// expressions (`mu`, `c->mu`); parenthesising them is not valid inside
// __attribute__ argument lists.

#if defined(__clang__) && defined(__has_attribute)
#define STAR_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define STAR_THREAD_ANNOTATION__(x)
#endif

/// Declares a type to be a capability (a lock).  The string names the
/// capability kind in diagnostics ("mutex", "spinlock").
#define STAR_CAPABILITY(x) STAR_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor (star::MutexLock, star::SpinLockGuard).
#define STAR_SCOPED_CAPABILITY STAR_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define STAR_GUARDED_BY(x) STAR_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while holding `x`.
#define STAR_PT_GUARDED_BY(x) STAR_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and does
/// not release them).
#define STAR_REQUIRES(...) \
  STAR_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define STAR_REQUIRES_SHARED(...) \
  STAR_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define STAR_ACQUIRE(...) \
  STAR_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define STAR_ACQUIRE_SHARED(...) \
  STAR_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (which must be held on entry).
#define STAR_RELEASE(...) \
  STAR_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define STAR_RELEASE_SHARED(...) \
  STAR_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function attempts to acquire the capability; the boolean first argument
/// is the return value on success.
#define STAR_TRY_ACQUIRE(...) \
  STAR_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (non-reentrancy contract).
#define STAR_EXCLUDES(...) STAR_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime, for the analysis) that the capability is held.
#define STAR_ASSERT_CAPABILITY(x) \
  STAR_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the capability that guards its result.
#define STAR_RETURN_CAPABILITY(x) STAR_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: the function's locking discipline is correct but not
/// expressible (document why at every use site).
#define STAR_NO_THREAD_SAFETY_ANALYSIS \
  STAR_THREAD_ANNOTATION__(no_thread_safety_analysis)

// NOLINTEND(bugprone-macro-parentheses)

// ---------------------------------------------------------------------------
// STAR-specific contract tags (enforced by tools/star_lint.py).
// ---------------------------------------------------------------------------

/// Marks a function as part of a zero-allocation, non-blocking hot path
/// (commit, replay-apply, snapshot-read).  star_lint rejects heap
/// allocation, blocking calls (std::mutex, sleeps, file IO), and calls to
/// repo-defined functions that are neither STAR_HOT_PATH themselves nor
/// escaped with a justified `// star-lint: allow(hot-path): ...` comment.
/// Spin latches (star::SpinLock) are permitted: bounded short critical
/// sections are part of the Silo protocol, not blocking.
/// Also a real compiler hint: hot-path code is optimised for speed and kept
/// out of cold sections.
#if defined(__GNUC__) || defined(__clang__)
#define STAR_HOT_PATH __attribute__((hot))
#else
#define STAR_HOT_PATH
#endif

/// Keeps a function out of line (a compiler hint, not a contract): for the
/// slow tail of a hot path, so the fast part stays small enough to inline.
#if defined(__GNUC__) || defined(__clang__)
#define STAR_NOINLINE __attribute__((noinline))
#else
#define STAR_NOINLINE
#endif

/// Cache line size the padding contracts assume.  64 bytes covers x86 and
/// most aarch64 parts; over-aligning on exotic 128-byte-line hosts costs
/// only memory.
#ifndef STAR_CACHELINE_SIZE
#define STAR_CACHELINE_SIZE 64
#endif

/// Pads a cross-thread counter (or a whole per-thread lane struct) to its
/// own cache line so concurrent writers never false-share.  star_lint
/// requires this (or a plain alignas(64)) on counter-lane structs.
#define STAR_CACHELINE_ALIGNED alignas(STAR_CACHELINE_SIZE)

#endif  // STAR_COMMON_THREAD_ANNOTATIONS_H_
