package machine

import (
	"sync/atomic"
	"testing"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// loopMachine builds an n-core machine where every core runs its own
// copy of a tight S-mode ALU loop on private pages (no firmware; the
// cores never trap).
func loopMachine(t testing.TB, cores int) *Machine {
	t.Helper()
	cfg := DefaultConfig(IsolationNone)
	cfg.Cores = cores
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nextPPN := cfg.DRAM.Base(1) >> mem.PageBits
	alloc := func() (uint64, error) {
		p := nextPPN
		nextPPN++
		return p, nil
	}
	for i := 0; i < cores; i++ {
		builder, err := pt.NewBuilder(m.Mem, alloc)
		if err != nil {
			t.Fatal(err)
		}
		const codeVA, dataVA = uint64(0x10000), uint64(0x20000)
		prog := asm.New().
			Li64(isa.RegS0, dataVA).
			Label("loop").
			I(isa.OpLD, isa.RegT1, isa.RegS0, 0, 0).
			I(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT1, 0).
			I(isa.OpSD, 0, isa.RegS0, isa.RegT2, 8).
			I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
			J("loop")
		bin, err := prog.Assemble(codeVA)
		if err != nil {
			t.Fatal(err)
		}
		codePPN, _ := alloc()
		dataPPN, _ := alloc()
		if err := builder.Map(codeVA, codePPN<<mem.PageBits, pt.R|pt.X); err != nil {
			t.Fatal(err)
		}
		if err := builder.Map(dataVA, dataPPN<<mem.PageBits, pt.R|pt.W); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.WriteBytes(codePPN<<mem.PageBits, bin); err != nil {
			t.Fatal(err)
		}
		c := m.Cores[i]
		c.Satp = builder.Root
		c.CPU.Mode = isa.PrivS
		c.CPU.PC = codeVA
	}
	return m
}

// TestSchedulerDeterministicOrder checks that deterministic Drive
// slices the cores round-robin in core-ID order and stops each core
// exactly when its driver reports completion.
func TestSchedulerDeterministicOrder(t *testing.T) {
	m := loopMachine(t, 3)
	var order []int
	slices := map[int]int{}
	s := NewScheduler(m, SchedDeterministic)
	s.Drive([]int{0, 1, 2}, func(coreID int) bool {
		order = append(order, coreID)
		slices[coreID]++
		if _, err := m.Run(coreID, 100); err != nil {
			t.Fatal(err)
		}
		return slices[coreID] < coreID+2 // core i runs i+2 slices
	})
	want := []int{0, 1, 2, 0, 1, 2, 1, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("slice order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("slice order %v, want %v", order, want)
		}
	}
	for id, c := range m.Cores {
		wantSteps := uint64(100 * (id + 2))
		if c.CPU.Cycles == 0 {
			t.Fatalf("core %d never ran", id)
		}
		if got := c.CPU.Regs[isa.RegT0]; got > wantSteps {
			t.Fatalf("core %d retired too much: t0=%d", id, got)
		}
	}
}

// TestSchedulerParallelRunsAllCores drives four cores in parallel mode
// and requires every core to have made progress.
func TestSchedulerParallelRunsAllCores(t *testing.T) {
	m := loopMachine(t, 4)
	var total atomic.Int64
	slices := make([]atomic.Int64, 4)
	s := NewScheduler(m, SchedParallel)
	s.Drive([]int{0, 1, 2, 3}, func(coreID int) bool {
		res, err := m.Run(coreID, 5_000)
		if err != nil {
			t.Error(err)
			return false
		}
		total.Add(int64(res.Steps))
		return slices[coreID].Add(1) < 10
	})
	if got := total.Load(); got != 4*10*5_000 {
		t.Fatalf("retired %d instructions in parallel mode, want %d", got, 4*10*5_000)
	}
	for i := range m.Cores {
		if m.Cores[i].CPU.Cycles == 0 {
			t.Fatalf("core %d never ran", i)
		}
	}
}

// TestIPIIdleCoreExecutesSynchronously broadcasts without waiting to
// cores that are not running: each must have run the request, on
// itself and with its arguments, before Broadcast returns — and the
// posting hart runs its own copy inline.
func TestIPIIdleCoreExecutesSynchronously(t *testing.T) {
	m := loopMachine(t, 3)
	var ran [3][3]uint64
	fn := func(c *Core, a, b, d uint64) { ran[c.ID] = [3]uint64{a, b, d} }
	for _, from := range []int{NoHart, 1} {
		ran = [3][3]uint64{}
		m.Broadcast(from, false, fn, 4, 5, uint64(from))
		for id, args := range ran {
			if args != [3]uint64{4, 5, uint64(from)} {
				t.Fatalf("from %d: core %d ran fn%v before Broadcast returned", from, id, args)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { m.Broadcast(NoHart, false, fn, 1, 1, 1) }); n != 0 {
		t.Errorf("Broadcast allocates %.1f objects per call, want 0", n)
	}
}

// TestIPIRunningCoreAcknowledgesAtBoundary broadcasts with wait to two
// running cores from another goroutine: each request must execute on
// its core between instructions (or, if the run already finished, on
// the idle core), and Broadcast must not return before every core has
// acknowledged. A request posted without wait reaches a running core
// too, by the end of its run.
func TestIPIRunningCoreAcknowledgesAtBoundary(t *testing.T) {
	m := loopMachine(t, 2)
	m.SetConcurrent(true)
	run := func() chan struct{} {
		done := make(chan struct{})
		for id := range m.Cores {
			go func() {
				defer func() { done <- struct{}{} }()
				// Long-running slice; the IPI is typically served mid-run.
				if _, err := m.Run(id, 1_000_000); err != nil {
					t.Error(err)
				}
			}()
		}
		return done
	}
	var acked [2]atomic.Uint64
	fn := func(c *Core, a, _, _ uint64) { acked[c.ID].Store(a) }
	done := run()
	m.Broadcast(NoHart, true, fn, 1, 0, 0)
	for id := range acked {
		if acked[id].Load() != 1 {
			t.Fatalf("Broadcast returned before core %d acknowledged", id)
		}
	}
	m.Broadcast(NoHart, false, fn, 2, 0, 0)
	<-done
	<-done
	for id := range acked {
		if acked[id].Load() != 2 {
			t.Fatalf("core %d finished its run without the posted request", id)
		}
	}
	if n := testing.AllocsPerRun(100, func() { m.Broadcast(NoHart, true, fn, 3, 0, 0) }); n != 0 {
		t.Errorf("a waited Broadcast allocates %.1f objects per call, want 0", n)
	}
}

// TestRunOnCall: the one-core form runs fn with its three arguments
// inline for the posting hart itself, and through the mailbox for an
// idle core and for a running one, returning only once the call ran.
// Posting it allocates nothing once the mailbox's queue has grown: the
// monitor's wake path relies on that.
func TestRunOnCall(t *testing.T) {
	m := loopMachine(t, 2)
	var got [3]uint64
	on := -1
	fn := func(c *Core, a, b, d uint64) { on, got = c.ID, [3]uint64{a, b, d} }
	for _, tc := range []struct {
		id, from int
		args     [3]uint64
	}{
		{1, 1, [3]uint64{1, 2, 3}},      // the posting hart: inline
		{1, NoHart, [3]uint64{4, 5, 6}}, // an idle core
		{1, 0, [3]uint64{7, 8, 9}},      // an idle core, from another hart
	} {
		m.RunOnCall(tc.id, tc.from, fn, tc.args[0], tc.args[1], tc.args[2])
		if on != tc.id || got != tc.args {
			t.Fatalf("RunOnCall(%d, %d) ran fn%v on core %d, want fn%v on core %d",
				tc.id, tc.from, got, on, tc.args, tc.id)
		}
	}
	if n := testing.AllocsPerRun(100, func() { m.RunOnCall(1, NoHart, fn, 1, 1, 1) }); n != 0 {
		t.Errorf("RunOnCall allocates %.1f objects per call, want 0", n)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.Run(0, 5_000_000); err != nil {
			t.Error(err)
		}
	}()
	m.RunOnCall(0, NoHart, fn, 10, 11, 12)
	if got != [3]uint64{10, 11, 12} {
		t.Errorf("RunOnCall to a running core returned before fn ran: got fn%v", got)
	}
	<-done
}

// TestIPIQueuedRunsBeforeDirect pins mailbox order on the direct
// path: a request posted while core 1 was held stays queued, and the
// next request to the core, sent once it is idle, runs it first and
// itself second, both before RunOnCall returns. Only the held core's
// request passes through the queue.
func TestIPIQueuedRunsBeforeDirect(t *testing.T) {
	m := loopMachine(t, 2)
	var order []uint64 // the requests core 1 ran
	fn := func(c *Core, a, _, _ uint64) {
		if c.ID == 1 {
			order = append(order, a)
		}
	}
	core := m.Cores[1]
	if !core.TryAcquire() {
		t.Fatal("core 1 is not idle")
	}
	m.Broadcast(NoHart, false, fn, 1, 0, 0)
	if len(order) != 0 {
		t.Fatalf("a held core ran the broadcast: order %v", order)
	}
	core.Release()
	m.RunOnCall(1, NoHart, fn, 2, 0, 0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("core 1 ran %v, want the queued request 1 then the new request 2", order)
	}
	if n := core.ipi.acked.Load(); n != 1 {
		t.Fatalf("core 1's mailbox carried %d requests, want only the 1 posted while it was held", n)
	}
}

// TestInterruptCoreCrossGoroutine latches an external interrupt from
// another goroutine; without firmware the run loop must surface it as
// an error (trap with no firmware), proving delivery at an instruction
// boundary rather than a lost or torn latch.
func TestInterruptCoreCrossGoroutine(t *testing.T) {
	m := loopMachine(t, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := m.Run(0, 1_000_000_000)
		errc <- err
	}()
	m.InterruptCore(0)
	if err := <-errc; err != ErrNoFirmware {
		t.Fatalf("run after cross-goroutine interrupt: %v, want ErrNoFirmware", err)
	}
}
