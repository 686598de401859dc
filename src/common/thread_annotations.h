#ifndef SPATIALJOIN_COMMON_THREAD_ANNOTATIONS_H_
#define SPATIALJOIN_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis annotations (Abseil-style, SJ_ prefix).
///
/// These macros attach locking contracts to types, fields, and functions
/// so that `clang -Wthread-safety` rejects lock-discipline violations at
/// compile time — the static counterpart of the TSan CI job, which only
/// sees the interleavings a test happens to execute. Under compilers
/// without the attributes (GCC builds this tree too) every macro expands
/// to nothing, so annotations are zero-cost and portable.
///
/// Conventions (DESIGN.md §9):
///  * Every field protected by a mutex is declared `SJ_GUARDED_BY(mu_)`.
///  * Private helpers that assume the lock is already held are named
///    `*Locked()` and declared `SJ_REQUIRES(mu_)`.
///  * Public entry points that take the lock themselves are annotated
///    `SJ_EXCLUDES(mu_)` when calling them with the lock held would
///    deadlock.
///  * Use `spatialjoin::Mutex` / `MutexLock` (common/mutex.h) instead of
///    `std::mutex` / `std::lock_guard`: libstdc++'s std::mutex carries no
///    capability attributes, so the analysis cannot see through it.
///
/// The analysis is opt-out per function via SJ_NO_THREAD_SAFETY_ANALYSIS;
/// every use of that escape hatch must carry a comment saying why the
/// static analysis cannot express the protocol.

#if defined(__clang__) && defined(__has_attribute)
#define SJ_TS_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define SJ_TS_HAS_ATTRIBUTE(x) 0
#endif

#if SJ_TS_HAS_ATTRIBUTE(guarded_by)
#define SJ_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define SJ_TS_ATTRIBUTE(x)  // no-op
#endif

/// Declares a type to be a capability ("mutex"): lockable by the analysis.
#define SJ_CAPABILITY(x) SJ_TS_ATTRIBUTE(capability(x))

/// Legacy spelling of SJ_CAPABILITY("mutex").
#define SJ_LOCKABLE SJ_CAPABILITY("mutex")

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability (e.g. MutexLock).
#define SJ_SCOPED_CAPABILITY SJ_TS_ATTRIBUTE(scoped_lockable)

/// Field annotation: reads and writes require holding `x`.
#define SJ_GUARDED_BY(x) SJ_TS_ATTRIBUTE(guarded_by(x))

/// Pointer-field annotation: the pointed-to data requires holding `x`
/// (the pointer itself may be read freely).
#define SJ_PT_GUARDED_BY(x) SJ_TS_ATTRIBUTE(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock detection).
#define SJ_ACQUIRED_BEFORE(...) SJ_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define SJ_ACQUIRED_AFTER(...) SJ_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function annotation: the caller must hold the given capabilities
/// exclusively (the `*Locked()` helper contract).
#define SJ_REQUIRES(...) SJ_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function annotation: the caller must hold the capabilities shared.
#define SJ_REQUIRES_SHARED(...) \
  SJ_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function annotations: the function acquires/releases the capability.
#define SJ_ACQUIRE(...) SJ_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define SJ_ACQUIRE_SHARED(...) \
  SJ_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define SJ_RELEASE(...) SJ_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define SJ_RELEASE_SHARED(...) \
  SJ_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// Function annotation: attempts the lock; on `ret` it is held.
#define SJ_TRY_ACQUIRE(...) SJ_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Function annotation: must be called *without* the capability held
/// (the function takes it itself; re-entry would deadlock).
#define SJ_EXCLUDES(...) SJ_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function annotation: returns a reference to the named capability.
#define SJ_RETURN_CAPABILITY(x) SJ_TS_ATTRIBUTE(lock_returned(x))

/// Runtime assertion that the capability is held (informs the analysis).
#define SJ_ASSERT_CAPABILITY(x) SJ_TS_ATTRIBUTE(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the protocol is not expressible.
#define SJ_NO_THREAD_SAFETY_ANALYSIS \
  SJ_TS_ATTRIBUTE(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Whole-program contract annotations, checked by scripts/analysis/
// sj_analyze.py (DESIGN.md §9) rather than by the compiler. Under clang
// they also emit an `annotate` attribute so the libclang frontend reads
// them straight from the AST; elsewhere they expand to nothing and the
// textual frontend matches the macro token instead. Both spellings must
// appear at the *start* of a declaration (`SJ_HOT bool ThetaUpper(...)`)
// — GNU attributes are only portable in the decl-specifier position.
// ---------------------------------------------------------------------------

#if defined(__clang__) && SJ_TS_HAS_ATTRIBUTE(annotate)
#define SJ_ANALYZE_ANNOTATE(x) __attribute__((annotate(x)))
#else
#define SJ_ANALYZE_ANNOTATE(x)  // no-op
#endif

/// Hot-path purity contract: this function — and everything reachable
/// from it through direct calls — must not allocate, lock, throw, or
/// make virtual calls. Adopted on the join/select kernels (the flat
/// FrozenTree kernel in exec/flat_kernel.cc and the generic per-pair
/// bodies in core/join_detail.h), the Θ predicate kernels
/// (core/theta_ops.cc), FrozenTree accessors, and slotted-page readers,
/// so later SIMD and query-compilation passes can refactor against a
/// machine-checked invariant. Known, reviewed exceptions (the operator's
/// virtual θ/Θ dispatch, amortized growth of caller-owned buffers) live
/// in scripts/analysis/baseline.json with per-entry justifications —
/// not here.
#define SJ_HOT SJ_ANALYZE_ANNOTATE("sj::hot")

/// Async-signal-safety contract: this function is (transitively) called
/// from a fatal-signal handler, so it must stay within the POSIX
/// async-signal-safe allowlist — no allocation, no mutexes, no stdio or
/// iostream, no SJ_EVENT (vsnprintf + ring publication is normal-context
/// only). sj_analyze treats every marked function as an additional
/// checker root alongside the handlers it discovers via sigaction.
#define SJ_SIGNAL_SAFE SJ_ANALYZE_ANNOTATE("sj::signal_safe")

#endif  // SPATIALJOIN_COMMON_THREAD_ANNOTATIONS_H_
