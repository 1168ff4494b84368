package sm

// Fault injection for the §V-A transaction layer. Every TryLock a
// monitor transaction performs is routed through Monitor.tryLock, a
// single choke point that consults an optional hook before touching
// the mutex. The hook serves the model checker (internal/mc) and the
// adversary test battery two ways:
//
//   - Returning true forces a spurious acquire failure: the
//     transaction fails with ErrRetry exactly as if another hart held
//     the lock, without any real contention. Driving this from a
//     seeded schedule produces ErrRetry storms that prove the retry
//     discipline converges.
//   - Returning false after running a racing operation synchronously
//     inside the hook emulates an adversarially timed preemption: the
//     victim transaction resumes against mutated state at the worst
//     possible instant, deterministically. The dead re-check in the
//     object lookup (monitor.go), which serves enclaves, threads,
//     snapshots, rings and grants, is tested exactly this way.
//
// The hook is monitor test/verification surface, not ABI: production
// paths never install one, and the fast path is a single atomic nil
// check.

import "sync/atomic"

// LockKind classifies the transaction locks of §V-A for fault hooks.
type LockKind uint8

// Lock classes, one per monitor object kind carrying a transaction
// lock. LockCore is the core's run-ownership acquisition in
// enter_enclave (machine.Core.TryAcquire), not a mutex.
const (
	LockEnclave LockKind = iota
	LockThread
	LockSnapshot
	LockRing
	LockGrant
	LockRegion
	LockCoreSlot
	LockCore
)

func (k LockKind) String() string {
	switch k {
	case LockEnclave:
		return "enclave"
	case LockThread:
		return "thread"
	case LockSnapshot:
		return "snapshot"
	case LockRing:
		return "ring"
	case LockGrant:
		return "grant"
	case LockRegion:
		return "region"
	case LockCoreSlot:
		return "core-slot"
	case LockCore:
		return "core"
	default:
		return "lock-kind-?"
	}
}

// LockPoint identifies one transaction-lock acquisition at runtime:
// the lock class and the object id (eid, tid, snapshot id, ring id,
// grant id, region index, or core id).
type LockPoint struct {
	Kind LockKind
	ID   uint64
}

// FaultHook decides the fate of one lock acquisition: true forces a
// spurious failure (the transaction sees contention and fails with
// ErrRetry); false lets the acquisition proceed normally. The hook may
// run monitor calls synchronously before returning false to model an
// adversarially timed preemption, but must not re-enter the monitor
// when that would re-reach the same lock (classic re-entrancy).
type FaultHook func(LockPoint) bool

// SetLockFaultHook installs or (with nil) removes the transaction-lock
// fault hook. Safe to call concurrently with monitor traffic; in-flight
// transactions observe the hook atomically per acquisition.
func (mon *Monitor) SetLockFaultHook(fn FaultHook) {
	if fn == nil {
		mon.lockHook.Store(nil)
		return
	}
	mon.lockHook.Store(&fn)
}

// lockHookPtr is the atomic hook cell; a named type keeps the Monitor
// struct declaration readable.
type lockHookPtr = atomic.Pointer[FaultHook]
