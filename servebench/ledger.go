package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/smcall"
)

// The traced run observes a stack from outside through the two seams
// the system already exposes: OS.SM accepts a client over any
// smcall.Dispatcher, so a wrapper times every monitor call the OS
// issues; Machine.Firmware accepts any machine.Firmware, so a wrapper
// times every trap the monitor handles and, per core, the simulated
// execution between an entry or resume and the next trap. Neither
// wrapper changes an argument or a result.

// Trap slots past the call numbers: traps that are not ECALLs.
const (
	slotAEX   = 0x60 + iota // interrupt: an asynchronous enclave exit
	slotFault               // page fault, copy-on-write faults included
	slotOther
	nSlots
)

// callSlot names one slot the ledger reports on its own.
type callSlot struct {
	name string
	slot int
}

// hostCalls and trapCalls are the monitor calls (by the monitor's own
// names) and trap kinds the three workloads reach; "other" collects
// every slot not listed.
var (
	hostCalls = []callSlot{
		{"mailbox_ring_send", int(api.CallRingSend)},
		{"mailbox_ring_recv", int(api.CallRingRecv)},
		{"bulk_send", int(api.CallBulkSend)},
		{"enter_enclave", int(api.CallEnterEnclave)},
		{"region_info", int(api.CallRegionInfo)},
		{"clone_enclave", int(api.CallCloneEnclave)},
		{"delete_enclave", int(api.CallDeleteEnclave)},
		{"delete_thread", int(api.CallDeleteThread)},
		{"clean_region", int(api.CallCleanRegion)},
		{"other", slotOther},
	}
	trapCalls = []callSlot{
		{"thread_park", int(api.CallRingPark)},
		{"mailbox_ring_recv", int(api.CallRingRecv)},
		{"mailbox_ring_send", int(api.CallRingSend)},
		{"bulk_recv", int(api.CallBulkRecv)},
		{"resume_aex", int(api.CallResumeAEX)},
		{"exit_enclave", int(api.CallExitEnclave)},
		{"aex", slotAEX},
		{"fault", slotFault},
		{"other", slotOther},
	}
)

// fold moves every slot not listed in named into slotOther.
func fold(c *[nSlots]cost, named []callSlot) {
	keep := map[int]bool{}
	for _, n := range named {
		keep[n.slot] = true
	}
	for i := range c {
		if !keep[i] {
			c[slotOther].ns += c[i].ns
			c[slotOther].n += c[i].n
			c[i] = cost{}
		}
	}
}

// cost is time and count charged to one slot.
type cost struct {
	ns int64
	n  uint64
}

// tap is one machine's observation state. One goroutine drives a
// machine at a time in every workload here (each fleet shard runs its
// deterministic scheduler on its own goroutine), so a tap needs no
// locks; its owner reads it after the serving call returns.
type tap struct {
	mark    int64  // end of the last observed boundary
	running []bool // core executes enclave code since mark
	exec    int64  // ns of simulated execution
	trap    [nSlots]cost
	host    [nSlots]cost
	client  *smcall.Client
}

// attach wraps h's firmware and monitor client; the returned tap
// accumulates from then on.
func attach(h host) *tap {
	t := &tap{mark: now(), running: make([]bool, len(h.M.Cores))}
	h.M.Firmware = fwTap{t, h.M.Firmware}
	t.client = smcall.New(smTap{t, h.Mon})
	h.OS.SM = t.client
	return t
}

type fwTap struct {
	t     *tap
	inner machine.Firmware
}

// HandleTrap charges the time since the core's last boundary to
// simulated execution and the handler's own time to the trap's slot.
func (f fwTap) HandleTrap(c *machine.Core, tr *isa.Trap) machine.Disposition {
	t := f.t
	t0 := now()
	if t.running[c.ID] {
		t.exec += t0 - t.mark
	}
	slot := slotOther
	switch {
	case tr.Cause == isa.CauseECallU:
		if n := int(c.CPU.Reg(isa.RegA7)); n < slotAEX {
			slot = n
		}
	case tr.Cause.IsInterrupt():
		slot = slotAEX
	case tr.Cause.IsPageFault():
		slot = slotFault
	}
	d := f.inner.HandleTrap(c, tr)
	t1 := now()
	t.trap[slot].ns += t1 - t0
	t.trap[slot].n++
	t.mark = t1
	t.running[c.ID] = d == machine.DispResume
	return d
}

type smTap struct {
	t     *tap
	inner smcall.Dispatcher
}

func (d smTap) Dispatch(req api.Request) api.Response {
	t0 := now()
	resp := d.inner.Dispatch(req)
	t1 := now()
	d.t.charge(req.Call, t1-t0, 1)
	if req.Call == api.CallEnterEnclave && resp.Status == api.OK && req.Args[0] < uint64(len(d.t.running)) {
		d.t.running[req.Args[0]] = true
	}
	d.t.mark = t1
	return resp
}

// DispatchBatch charges a batched submission to its final call — the
// pool's fork batch (create, grants, clone) to clone_enclave — and
// counts every element under its own call.
func (d smTap) DispatchBatch(reqs []api.Request) []api.Response {
	t0 := now()
	resps := d.inner.DispatchBatch(reqs)
	t1 := now()
	for i, r := range reqs {
		var ns int64
		if i == len(reqs)-1 {
			ns = t1 - t0
		}
		d.t.charge(r.Call, ns, 1)
	}
	d.t.mark = t1
	return resps
}

func (t *tap) charge(call api.Call, ns int64, n uint64) {
	slot := int(call)
	if slot < 0 || slot >= slotAEX {
		slot = slotOther
	}
	t.host[slot].ns += ns
	t.host[slot].n += n
}

// ledger is the sum of a stack's taps over one or more passes.
type ledger struct {
	exec           int64
	trap, host     [nSlots]cost
	trapNS, hostNS int64
	traps, calls   uint64
	retries        uint64
}

// sumTaps reads the taps' running totals.
func sumTaps(taps []*tap) ledger {
	var l ledger
	for _, t := range taps {
		l.exec += t.exec
		for i := range t.trap {
			l.trap[i].ns += t.trap[i].ns
			l.trap[i].n += t.trap[i].n
			l.host[i].ns += t.host[i].ns
			l.host[i].n += t.host[i].n
		}
		l.retries += t.client.Retries()
	}
	for i := range l.trap {
		l.trapNS += l.trap[i].ns
		l.traps += l.trap[i].n
		l.hostNS += l.host[i].ns
		l.calls += l.host[i].n
	}
	fold(&l.host, hostCalls)
	fold(&l.trap, trapCalls)
	return l
}

// add returns l + o, or l − o when sign is −1.
func (l ledger) add(o ledger, sign int64) ledger {
	u := uint64(sign)
	l.exec += sign * o.exec
	for i := range l.trap {
		l.trap[i].ns += sign * o.trap[i].ns
		l.trap[i].n += u * o.trap[i].n
		l.host[i].ns += sign * o.host[i].ns
		l.host[i].n += u * o.host[i].n
	}
	l.trapNS += sign * o.trapNS
	l.hostNS += sign * o.hostNS
	l.traps += u * o.traps
	l.calls += u * o.calls
	l.retries += u * o.retries
	return l
}

// --- process-level clocks ---

// cpuNS is the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

// gcNS is the runtime's GC CPU time; the runtime updates it when a
// cycle completes, so readers force a cycle first.
func gcNS() int64 {
	metrics.Read(rtSamples)
	return int64(rtSamples[0].Value.Float64() * 1e9)
}

// liveHeapBytes is the heap the last completed GC found live.
func liveHeapBytes() uint64 {
	metrics.Read(rtSamples)
	return rtSamples[1].Value.Uint64()
}

// mallocs is the exact count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// jiffyNS is one /proc/stat tick (USER_HZ is 100 on Linux).
const jiffyNS = 10_000_000

// cpuTicks is one /proc/stat CPU line: busy, idle and stolen jiffies.
type cpuTicks struct{ busy, idle, steal uint64 }

// procStat reads the aggregate CPU line (index 0) and one line per CPU.
func procStat() []cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	var out []cpuTicks
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") {
			break
		}
		// user nice system idle iowait irq softirq steal; guest time
		// is already inside user and nice.
		var v [8]uint64
		for i := range v {
			v[i], _ = strconv.ParseUint(fields[1+i], 10, 64)
		}
		out = append(out, cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]})
	}
	return out
}

// stealShare is the share of host CPU time stolen between two reads.
func stealShare(a, b []cpuTicks) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	d := func(x, y uint64) float64 { return float64(y - x) }
	total := d(a[0].busy, b[0].busy) + d(a[0].idle, b[0].idle) + d(a[0].steal, b[0].steal)
	return d(a[0].steal, b[0].steal) / math.Max(1, total)
}

// busySteal estimates the ns stolen from the CPUs while they were busy
// between two reads: each CPU's steal, weighted by the share of its
// unstolen time it spent busy. The hypervisor also counts steal
// against idle CPUs, which took nothing from the process.
func busySteal(a, b []cpuTicks) int64 {
	var ns float64
	for i := 1; i < len(a) && i < len(b); i++ {
		busy, idle := float64(b[i].busy-a[i].busy), float64(b[i].idle-a[i].idle)
		if busy+idle > 0 {
			ns += float64(b[i].steal-a[i].steal) * busy / (busy + idle) * jiffyNS
		}
	}
	return int64(ns)
}
