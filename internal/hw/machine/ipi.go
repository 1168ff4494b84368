package machine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Inter-processor mailboxes. The paper's monitor coordinates harts with
// per-core mailboxes and inter-processor interrupts: a hart that needs
// another hart's microarchitectural state changed (TLB shootdown on
// region re-allocation, per-core view reprogramming) posts a message
// and raises an IPI; the target acknowledges at an instruction
// boundary, where its pipeline is architecturally quiescent. This file
// is that mechanism for the simulated machine.
//
// Ownership model: a core's microarchitectural state (TLB, L1, decode
// caches, isolation registers) may only be touched while holding the
// core's runMu. Machine.Run holds it for the whole run, so a running
// core executes its own mailbox at instruction boundaries (takeInterrupt
// → drainIPIs). For a core that is not running, the poster acquires
// runMu itself and executes the request on the core's behalf — the
// simulation analogue of programming a parked hart. In deterministic
// single-goroutine execution every target is idle, so posting degrades
// to the synchronous call it used to be, byte-for-byte.
type ipiMailbox struct {
	mu     sync.Mutex
	queue  []ipiReq
	spare  []ipiReq      // the last drained queue, cleared, for the next post
	posted uint64        // requests ever posted (under mu)
	acked  atomic.Uint64 // requests executed
}

// ipiReq is one mailbox request: fn(core), or call(args...) when fn is
// nil. The second form carries its three word arguments by value, so a
// poster whose request is a call of a long-lived function (the
// monitor's wake sink) builds no closure and posting allocates nothing
// once the queue has grown.
type ipiReq struct {
	fn   func(*Core)
	call func(a, b, c uint64)
	args [3]uint64
}

// post appends a request and returns its sequence number.
func (b *ipiMailbox) post(r ipiReq) uint64 {
	b.mu.Lock()
	if b.queue == nil {
		b.queue, b.spare = b.spare, nil
	}
	b.queue = append(b.queue, r)
	b.posted++
	seq := b.posted
	b.mu.Unlock()
	return seq
}

// drainIPIs executes every queued mailbox request on the core. Caller
// holds the core's runMu (the run loop at an instruction boundary, or a
// poster that found the core idle).
func (c *Core) drainIPIs() {
	var done []ipiReq
	for {
		c.ipi.mu.Lock()
		c.pending.And(^pendingIPI)
		if done != nil {
			c.ipi.spare = done
		}
		fns := c.ipi.queue
		c.ipi.queue = nil
		c.ipi.mu.Unlock()
		if len(fns) == 0 {
			return
		}
		for i := range fns {
			if r := &fns[i]; r.fn != nil {
				r.fn(c)
			} else {
				r.call(r.args[0], r.args[1], r.args[2])
			}
			c.ipi.acked.Add(1)
		}
		// Hand the slice back for reuse, cleared so the closures it held
		// can be freed. A request executed above may itself have posted
		// to this core; loop so the ack sequence stays dense.
		clear(fns)
		done = fns[:0]
	}
}

// tryDrainIdle executes the core's mailbox if the core is not running,
// returning whether it got to run. Posters use it so that requests to
// idle cores complete synchronously.
func (c *Core) tryDrainIdle() bool {
	if !c.runMu.TryLock() {
		return false
	}
	c.drainIPIs()
	c.runMu.Unlock()
	return true
}

// NoHart is the RunOn `from` value for callers not executing on any
// simulated hart (Go-level untrusted-OS code, boot).
const NoHart = -1

// TryAcquire claims run ownership of an idle core without blocking:
// the same mutex Machine.Run holds for its whole duration and IPI
// posters take to program idle harts. The security monitor uses it to
// make enter_enclave's core programming a failable transaction — if
// the core is running (or an IPI poster momentarily owns it), the
// claim fails and the monitor returns its retry status instead of
// blocking. Pair with Release.
func (c *Core) TryAcquire() bool { return c.runMu.TryLock() }

// Release returns run ownership taken with TryAcquire. Mailbox
// requests posted while the holder owned the core are drained by the
// next Run (or by their posters once the mutex is free).
func (c *Core) Release() { c.runMu.Unlock() }

// PostIPI delivers fn to core id's mailbox. If the core is running, fn
// executes at its next instruction boundary (the hot loop polls the
// pending word every step); if it is idle, fn executes before PostIPI
// returns, on the caller's goroutine. Fire-and-forget: use RunOn to
// wait for the acknowledgment. fn must not block on monitor locks that
// its poster may hold.
//
// Posting to the hart one is currently executing on (a trap handler
// updating its own core) is legal: the request sits in the mailbox and
// drains at the boundary immediately after the trap returns, before the
// next instruction issues.
func (m *Machine) PostIPI(id int, fn func(*Core)) {
	c := m.Cores[id]
	c.ipi.post(ipiReq{fn: fn})
	c.pending.Or(pendingIPI)
	c.tryDrainIdle()
}

// RunOn delivers fn to core id's mailbox and waits until it has been
// acknowledged. from is the core ID of the posting hart (-1 when the
// caller is not executing on any simulated hart, e.g. Go-level OS
// code); a hart targeting itself executes fn inline — it is at an
// instruction boundary inside its own trap handler, which is exactly
// the acknowledgment point.
//
// The wait cannot deadlock provided fn and the poster respect the
// monitor's lock discipline: a running target acknowledges within one
// instruction, an idle target is executed by this goroutine, and a
// target that exits Run leaves its runMu free for us to take.
func (m *Machine) RunOn(id, from int, fn func(*Core)) {
	if id == from {
		fn(m.Cores[id])
		return
	}
	m.await(id, ipiReq{fn: fn})
}

// RunOnCall is RunOn for a call of three word arguments: fn(a, b, c)
// runs at core id's instruction boundary (inline when id == from), and
// RunOnCall returns once it has. The mailbox keeps fn and its arguments
// by value, so unlike a RunOn closure that captures them, the request
// does not allocate.
func (m *Machine) RunOnCall(id, from int, fn func(a, b, c uint64), a, b, c uint64) {
	if id == from {
		fn(a, b, c)
		return
	}
	m.await(id, ipiReq{call: fn, args: [3]uint64{a, b, c}})
}

// await posts r to core id's mailbox and waits for its acknowledgment,
// executing the mailbox itself whenever the core is idle.
func (m *Machine) await(id int, r ipiReq) {
	c := m.Cores[id]
	seq := c.ipi.post(r)
	c.pending.Or(pendingIPI)
	for c.ipi.acked.Load() < seq {
		if !c.tryDrainIdle() {
			runtime.Gosched()
		}
	}
}
