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
// runMu itself and runs the request directly on the core's behalf —
// the simulation analogue of programming a parked hart — after
// anything already queued for the core, so the queue and its
// acknowledgment counters serve only cores that were running, or held,
// when a request arrived. In deterministic single-goroutine execution
// every target is idle, so posting is the synchronous call it always
// was, byte-for-byte.
type ipiMailbox struct {
	mu     sync.Mutex
	queue  []ipiReq
	spare  []ipiReq      // the last drained queue, cleared, for the next post
	posted uint64        // requests ever posted (under mu)
	acked  atomic.Uint64 // requests executed
}

// IPIFunc is the one form of mailbox request: fn(core, a, b, c) runs
// on the target core with three word arguments. The mailbox carries fn
// and its arguments by value, so a poster whose fn is a plain function
// or a method value bound once builds no closure, and posting
// allocates nothing once the queue has grown.
type IPIFunc func(core *Core, a, b, c uint64)

// ipiReq is one queued request.
type ipiReq struct {
	fn   IPIFunc
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
			r := &fns[i]
			r.fn(c, r.args[0], r.args[1], r.args[2])
			c.ipi.acked.Add(1)
		}
		// Hand the slice back for reuse, cleared so the functions it
		// held can be freed. A request executed above may itself have posted
		// to this core; loop so the ack sequence stays dense.
		clear(fns)
		done = fns[:0]
	}
}

// tryRunIdle is the one way a poster runs requests on a core that is
// not running: it executes whatever the core's mailbox holds, then r
// if r is not nil, and reports whether it got to run. A post completes
// by raising the IPI, so every request queued before the call has its
// bit set.
func (c *Core) tryRunIdle(r *ipiReq) bool {
	if !c.runMu.TryLock() {
		return false
	}
	if c.pending.Load()&pendingIPI != 0 {
		c.drainIPIs()
	}
	if r != nil {
		r.fn(c, r.args[0], r.args[1], r.args[2])
	}
	c.runMu.Unlock()
	return true
}

// NoHart is the `from` value of RunOnCall and Broadcast for callers
// not executing on any simulated hart (Go-level untrusted-OS code,
// boot).
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

// RunOnCall delivers fn(core, a, b, c) to core id's mailbox and
// returns once core id has run it. from is the core ID of the posting
// hart (NoHart when the caller is not executing on any simulated hart,
// e.g. Go-level OS code); a hart targeting itself runs fn inline — it
// is at an instruction boundary inside its own trap handler, which is
// exactly the acknowledgment point.
//
// The wait cannot deadlock provided fn and the poster respect the
// monitor's lock discipline: a running target acknowledges within one
// instruction, an idle target is executed by this goroutine, and a
// target that exits Run leaves its runMu free for us to take.
func (m *Machine) RunOnCall(id, from int, fn IPIFunc, a, b, c uint64) {
	if id == from {
		fn(m.Cores[id], a, b, c)
		return
	}
	m.Cores[id].send(ipiReq{fn, [3]uint64{a, b, c}}, true)
}

// Broadcast delivers fn(core, a, b, c) to every core: inline on the
// posting hart from (NoHart when the caller runs on none), through the
// mailbox to the others. An idle core runs fn on the caller's goroutine
// before Broadcast moves on; a running core runs it at its next
// instruction boundary. With wait, Broadcast returns only once every
// core has run fn. Without, it does not wait for running cores, as a
// poster holding a lock a running hart may block on must not. A trap
// handler posting with from == NoHart leaves its own core's copy in the
// mailbox, to run at the boundary right after the trap returns, before
// the next instruction executes.
func (m *Machine) Broadcast(from int, wait bool, fn IPIFunc, a, b, c uint64) {
	r := ipiReq{fn, [3]uint64{a, b, c}}
	for _, core := range m.Cores {
		if core.ID == from {
			fn(core, a, b, c)
		} else {
			core.send(r, wait)
		}
	}
}

// send delivers r to the core. An idle core runs r on this goroutine,
// after whatever its mailbox already holds; otherwise r is posted to
// the mailbox and the IPI raised, and with wait send returns only once
// the core has run r.
func (c *Core) send(r ipiReq, wait bool) {
	if c.tryRunIdle(&r) {
		return
	}
	// The core is running or held. Post r, and run the mailbox here if
	// the core has gone idle since the try.
	seq := c.ipi.post(r)
	c.pending.Or(pendingIPI)
	if c.tryRunIdle(nil) || !wait {
		return
	}
	for c.ipi.acked.Load() < seq {
		if !c.tryRunIdle(nil) {
			runtime.Gosched()
		}
	}
}
