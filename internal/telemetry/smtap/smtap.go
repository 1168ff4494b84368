// Package smtap observes the security monitor from outside the TCB
// (DESIGN.md §13). The monitor carries no instrumentation; a Tap wraps
// it at the two seams every interaction with it crosses — the host
// call ABI (smcall.Dispatcher) and the machine's trap entry
// (machine.Firmware) — and records the monitor's call, ring and grant
// instruments into a telemetry registry. It reads only what crosses
// those seams: call numbers, statuses, the counts calls return, and
// the ring an ECALL names in a0. It never reads enclave memory.
package smtap

import (
	"sync"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// Tap is one machine's monitor observer. It is a machine.Firmware and
// an smcall.Dispatcher, so it goes where the monitor would: the
// machine's firmware and the OS's dispatcher. Instrument handles are
// resolved once, in New; no call or trap allocates.
type Tap struct {
	mon   *sm.Monitor
	clock func() uint64

	calls []call // indexed by call number

	sendBatch *telemetry.Histogram // messages per successful send
	recvBatch *telemetry.Histogram // messages per successful recv
	depth     *telemetry.Gauge     // queued messages across all rings
	parks     *telemetry.Counter
	wakes     *telemetry.Counter
	parkWait  *telemetry.Histogram // cycles between park and wake
	grants    *telemetry.Gauge     // live bulk grants

	// mu guards rings, which the host seam and every trapping core
	// update: under the parallel scheduler they are different
	// goroutines.
	mu    sync.Mutex
	rings map[uint64]*ring
}

// call is one monitor call's instruments; both nil for a number that
// names no call, and every instrument method no-ops on nil.
type call struct{ count, retries *telemetry.Counter }

// ring is what the seams have seen of one ring: its queued messages,
// so a destroy can take the ones it drops off the depth gauge, and a
// parked consumer with the clock at its park.
type ring struct {
	queued int64
	parked bool
	stamp  uint64
}

// New returns a tap over mon recording into reg, stamping park→wake
// waits with clock (the machine's modeled-cycle clock).
func New(reg *telemetry.Registry, mon *sm.Monitor, clock func() uint64) *Tap {
	names := sm.CallNames()
	t := &Tap{
		mon:       mon,
		clock:     clock,
		calls:     make([]call, len(names)),
		sendBatch: reg.Histogram("sm.ring.send.batch"),
		recvBatch: reg.Histogram("sm.ring.recv.batch"),
		depth:     reg.Gauge("sm.ring.depth"),
		parks:     reg.Counter("sm.ring.parks"),
		wakes:     reg.Counter("sm.ring.wakes"),
		parkWait:  reg.Histogram("sm.ring.parkwait.cycles"),
		grants:    reg.Gauge("sm.bulk.grants"),
		rings:     make(map[uint64]*ring),
	}
	for c, name := range names {
		if name != "" {
			t.calls[c] = call{reg.Counter("sm.call." + name + ".count"), reg.Counter("sm.call." + name + ".retries")}
		}
	}
	return t
}

func (t *Tap) instr(c api.Call) call {
	if c < api.Call(len(t.calls)) {
		return t.calls[c]
	}
	return call{}
}

// Dispatch forwards one host call and records it.
func (t *Tap) Dispatch(req api.Request) api.Response {
	resp := t.mon.Dispatch(req)
	t.record(req.Call, req.Args[0], resp.Status, resp.Values[0], 0)
	return resp
}

// DispatchBatch forwards a batch and records every element the monitor
// executed: the prefix up to and including a contended element, after
// which the monitor cut the batch.
func (t *Tap) DispatchBatch(reqs []api.Request) []api.Response {
	resps := t.mon.DispatchBatch(reqs)
	for i, resp := range resps {
		t.record(reqs[i].Call, reqs[i].Args[0], resp.Status, resp.Values[0], 0)
		if resp.Status == api.ErrRetry {
			break
		}
	}
	return resps
}

// HandleTrap forwards a trap and records an ECALL made while the core
// runs an enclave — a monitor call; any other ECALL is a process
// syscall the monitor only forwards. The ring id is read from a0
// before the monitor runs, and no status is read back after a call
// that moved control: exit_enclave and a park that parked, which
// return to the OS, and resume_aex and resume_fault, whose a0 is the
// restored context's.
func (t *Tap) HandleTrap(c *machine.Core, tr *isa.Trap) machine.Disposition {
	if tr.Cause != isa.CauseECallU || !c.EnclaveMode {
		return t.mon.HandleTrap(c, tr)
	}
	num, id := api.Call(c.CPU.Reg(isa.RegA7)), c.CPU.Reg(isa.RegA0)
	d := t.mon.HandleTrap(c, tr)
	switch {
	case d != machine.DispResume:
		t.instr(num).count.Inc(c.ID)
		if num == api.CallRingPark {
			t.park(id, c.ID)
		}
	case num == api.CallResumeAEX || num == api.CallResumeFault:
		t.instr(num).count.Inc(c.ID)
	default:
		t.record(num, id, api.Error(c.CPU.Reg(isa.RegA0)), c.CPU.Reg(isa.RegA1), c.ID)
	}
	return d
}

// record counts one completed call on shard — and its retry, when it
// was refused for contention — and applies what a successful ring or
// grant call changed: st is its status, v its first result value and
// id the object its first argument names.
func (t *Tap) record(c api.Call, id uint64, st api.Error, v uint64, shard int) {
	ci := t.instr(c)
	ci.count.Inc(shard)
	if st == api.ErrRetry {
		ci.retries.Inc(shard)
	}
	if st != api.OK {
		return
	}
	switch c {
	case api.CallRingCreate:
		// The tally is made here, not on the serving path.
		t.mu.Lock()
		t.ring(id)
		t.mu.Unlock()
	case api.CallRingSend, api.CallBulkSend:
		t.sendBatch.ObserveOn(shard, v)
		t.moved(id, int64(v), true, shard)
	case api.CallRingRecv, api.CallBulkRecv:
		t.recvBatch.ObserveOn(shard, v)
		t.moved(id, -int64(v), false, shard)
	case api.CallRingWake:
		t.moved(id, 0, v != 0, shard)
	case api.CallRingDestroy:
		t.mu.Lock()
		if r := t.rings[id]; r != nil {
			t.depth.Add(-r.queued)
			delete(t.rings, id)
		}
		t.mu.Unlock()
	case api.CallBulkGrant:
		t.grants.Add(1)
	case api.CallBulkRevoke:
		t.grants.Add(-1)
	}
}

// moved applies d queued messages (negative for a recv) to ring id. A
// send or an explicit wake pops the ring's parked consumer, and that
// pop is what counts as a wake, stamped on the waking call's own
// goroutine; the notification a destroy posts is not one.
func (t *Tap) moved(id uint64, d int64, pops bool, shard int) {
	t.depth.Add(d)
	t.mu.Lock()
	r := t.ring(id)
	r.queued += d
	woke, stamp := pops && r.parked, r.stamp
	if pops {
		r.parked = false
	}
	t.mu.Unlock()
	if woke {
		t.wakes.Inc(shard)
		t.parkWait.ObserveOn(shard, t.clock()-stamp)
	}
}

// park registers ring id's consumer as parked now.
func (t *Tap) park(id uint64, shard int) {
	t.parks.Inc(shard)
	now := t.clock()
	t.mu.Lock()
	r := t.ring(id)
	r.parked, r.stamp = true, now
	t.mu.Unlock()
}

// ring returns id's state, creating it on first sight: at its
// mailbox_ring_create, unless the ring was made behind the tap's back.
// Caller holds mu.
func (t *Tap) ring(id uint64) *ring {
	r := t.rings[id]
	if r == nil {
		r = &ring{}
		t.rings[id] = r
	}
	return r
}
