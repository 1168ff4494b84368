package os

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
)

// This file is the untrusted OS's thread scheduler: the resource-
// management half the paper explicitly leaves outside the monitor
// (§V: the SM verifies decisions, the OS makes them). It timeshares N
// enclave threads across M cores with timer preemption, entering and
// re-entering through the monitor's API and retrying whenever a
// transaction fails with ErrRetry. Under the machine scheduler's
// deterministic mode the interleaving (and everything downstream) is
// reproducible; under parallel mode the cores genuinely run
// concurrently and throughput scales with host CPUs.

// Task names one enclave thread to run to completion.
type Task struct {
	EID uint64
	TID uint64
	// MaxSteps bounds the task's total retired instructions; once
	// exceeded the scheduler preempts the thread off its core and
	// reports StopMaxSteps. 0 means no bound (the thread must exit).
	MaxSteps int
}

// TaskResult reports one finished task.
type TaskResult struct {
	Task        Task
	Steps       int                // instructions retired across all slices
	Preemptions int                // timer/forced AEXes suffered
	ExitValue   uint64             // a0 the enclave passed to exit_enclave
	Reason      machine.StopReason // how the final slice ended
	TrapCause   isa.Cause          // final trap delivered to the OS
	Err         error              // enter failures other than retry

	submitIdx int // submission order, for stable result ordering
}

// SchedConfig configures the OS scheduler.
type SchedConfig struct {
	// Mode selects deterministic round-robin interleaving or
	// goroutine-per-core parallel execution (machine.Scheduler).
	Mode machine.SchedMode
	// QuantumCycles arms the per-core timer on every enclave entry, so
	// a thread is preempted (AEX) after that many modeled cycles and
	// the next runnable task gets the core. 0 disables preemption.
	QuantumCycles uint64
	// SliceSteps bounds host instructions per drive slice (the
	// deterministic interleave granularity). Default 50000.
	SliceSteps int
}

// Scheduler timeshares enclave threads over every core of the machine.
// Create with OS.NewScheduler; drive with RunAll, one call at a time. A
// scheduler may be driven any number of times: each call reuses the
// buffers of the last, so a long-lived scheduler (the gateway's, one
// RunAll per wave) allocates nothing per call once they have grown.
type Scheduler struct {
	o     *OS
	cfg   SchedConfig
	drv   *machine.Scheduler
	cores []int // every core id, the cores Drive slices
	// sliceFn is the slice method value, bound once: Drive hands it to
	// goroutines in parallel mode, so a fresh one would escape per call.
	sliceFn func(coreID int) bool

	mu        sync.Mutex
	queue     []*schedTask // runnable, not on any core
	current   []*schedTask // indexed by core id; nil when idle
	results   []TaskResult
	arena     []schedTask // RunAll's task records, reused across calls
	remaining int         // submitted but unfinished tasks

	// wake parks idle parallel workers: one buffered token, sent by
	// whatever makes work available (enqueue, requeue, finish) and by
	// woken workers that observe more work or the drained state, so
	// wakeups chain instead of being lost. Deterministic mode never
	// parks (a single goroutine drives every core).
	wake chan struct{}
}

type schedTask struct {
	idx     int
	res     TaskResult
	bounded bool // Task.MaxSteps was set
	budget  int  // remaining step budget when bounded
	kill    bool // budget exhausted: force off the core at next slice
}

// NewScheduler returns a scheduler over this OS instance. Creating a
// parallel-mode scheduler latches the machine into concurrent
// operation immediately, so OS goroutines that will race the cores
// (region lifecycle churn under load) are safe from the start.
func (o *OS) NewScheduler(cfg SchedConfig) *Scheduler {
	if cfg.SliceSteps <= 0 {
		cfg.SliceSteps = 50_000
	}
	if cfg.Mode == machine.SchedParallel {
		o.M.SetConcurrent(true)
	}
	s := &Scheduler{
		o:       o,
		cfg:     cfg,
		drv:     machine.NewScheduler(o.M, cfg.Mode),
		current: make([]*schedTask, len(o.M.Cores)),
		wake:    make(chan struct{}, 1),
	}
	for i := range o.M.Cores {
		s.cores = append(s.cores, i)
	}
	s.sliceFn = s.slice
	return s
}

// signal makes one wake token available without blocking.
func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Retries reports how many monitor transactions through this OS's
// smcall client failed with api.ErrRetry — the §V-A contention signal.
// The counter lives in the client (the one place the retry discipline
// is implemented), so it covers the scheduler's enter_enclave attempts
// and every other contended call the OS issued. Deterministic mode
// never contends; parallel mode counts real cross-hart collisions.
func (s *Scheduler) Retries() uint64 { return s.o.SM.Retries() }

// RunAll timeshares the given tasks across every core until every task
// has finished, and returns their results in submission order. The
// returned slice belongs to the scheduler and is valid until its next
// RunAll. The previous call's records are reused: every task of it has
// finished, so none is still referenced.
func (s *Scheduler) RunAll(tasks []Task) []TaskResult {
	s.mu.Lock()
	s.results = s.results[:0]
	if len(s.arena) < len(tasks) {
		s.arena = make([]schedTask, len(tasks))
	}
	for i, t := range tasks {
		st := &s.arena[i]
		*st = schedTask{idx: i, res: TaskResult{Task: t}}
		if t.MaxSteps > 0 {
			st.bounded = true
			st.budget = t.MaxSteps
		}
		s.queue = append(s.queue, st)
	}
	s.remaining += len(tasks)
	s.mu.Unlock()
	s.signal()
	s.drv.Drive(s.cores, s.sliceFn)
	s.mu.Lock()
	defer s.mu.Unlock()
	slices.SortFunc(s.results, func(a, b TaskResult) int { return a.submitIdx - b.submitIdx })
	return s.results
}

// slice performs one unit of scheduling work on coreID; false means the
// scheduler is drained and this core can stop.
func (s *Scheduler) slice(coreID int) bool {
	t := s.takeFor(coreID)
	if t == nil {
		s.mu.Lock()
		done := s.remaining == 0
		s.mu.Unlock()
		if done {
			s.signal() // chain the wakeup so every parked sibling drains too
			return false
		}
		if s.cfg.Mode == machine.SchedParallel {
			// Park until work may exist again: a wake token from an
			// enqueue, requeue, finish or drain. Without parking, cores
			// with no runnable task would spin at full host speed —
			// wasting a host CPU per idle core and distorting the
			// scaling numbers the benchmarks measure.
			<-s.wake
			return true
		}
		// Deterministic mode is one goroutine round-robining every
		// core; it must not block while work is in flight — what it is
		// "waiting" for sits on another core of this same loop.
		runtime.Gosched()
		return true
	}
	s.runSlice(coreID, t)
	return true
}

// takeFor returns the task bound to the core (mid-execution from an
// earlier slice), or pops and enters the next runnable task. nil means
// the core has nothing to do right now.
func (s *Scheduler) takeFor(coreID int) *schedTask {
	s.mu.Lock()
	if t := s.current[coreID]; t != nil {
		s.mu.Unlock()
		return t
	}
	if len(s.queue) == 0 {
		s.mu.Unlock()
		return nil
	}
	// Pop by shifting down, so the queue's backing array serves every
	// later call instead of being resliced away (the queue is at most
	// one task per thread, so the copy is short).
	t := s.queue[0]
	n := copy(s.queue, s.queue[1:])
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if n > 0 {
		// More work remains: hand the wakeup on so a parked sibling
		// picks it up (a single token would otherwise serialize wakes).
		s.signal()
	}
	s.mu.Unlock()

	st := s.o.EnterEnclave(coreID, t.res.Task.EID, t.res.Task.TID)
	if st == api.ErrRetry {
		// Another hart's transaction holds the enclave, the thread or
		// the core; the client counted the collision — put the task
		// back and try again next slice (§V-A). Requeueing rather than
		// spinning in the client keeps the core available for other
		// runnable tasks.
		s.requeue(t)
		runtime.Gosched()
		return nil
	}
	if st != api.OK {
		t.res.Err = fmt.Errorf("os: enter_enclave(core=%d, eid=%#x, tid=%#x): %v",
			coreID, t.res.Task.EID, t.res.Task.TID, st)
		s.finish(t)
		return nil
	}
	if s.cfg.QuantumCycles > 0 {
		c := s.o.M.Cores[coreID]
		c.TimerCmp = c.CPU.Cycles + s.cfg.QuantumCycles
	}
	s.mu.Lock()
	s.current[coreID] = t
	s.mu.Unlock()
	return t
}

// runSlice drives the task currently on coreID for one bounded slice
// and services however the machine hands the core back.
func (s *Scheduler) runSlice(coreID int, t *schedTask) {
	if t.kill {
		// Budget exhausted in an earlier slice: preempt via IPI; the
		// core takes the external interrupt at its next instruction
		// boundary and the monitor performs the AEX.
		s.o.M.InterruptCore(coreID)
	}
	res, err := s.o.M.Run(coreID, s.cfg.SliceSteps)
	t.res.Steps += res.Steps
	if t.bounded {
		t.budget -= res.Steps
	}
	if err != nil {
		t.res.Err = err
		s.unbind(coreID)
		s.finish(t)
		return
	}
	if res.Reason == machine.StopMaxSteps {
		// Still on the core; if the task ran out of budget, force it
		// off on the next slice.
		if t.bounded && t.budget <= 0 {
			t.kill = true
		}
		return
	}
	// The monitor handed the core back to the OS. Disarm any quantum
	// timer still pending so it cannot leak into the next task's slice.
	s.o.M.Cores[coreID].TimerCmp = 0
	s.unbind(coreID)
	t.res.Reason = res.Reason
	if res.Trap != nil {
		t.res.TrapCause = res.Trap.Cause
	}
	if res.Reason == machine.StopReturnToOS && res.Trap != nil && res.Trap.Cause.IsInterrupt() {
		// Timer or IPI preemption: the monitor saved an AEX context;
		// the thread is runnable again (re-entry resumes via
		// resume_aex, Fig 4).
		t.res.Preemptions++
		if t.kill || (t.bounded && t.budget <= 0) {
			t.res.Reason = machine.StopMaxSteps
			s.finish(t)
			return
		}
		s.requeue(t)
		return
	}
	// Exit, fault delegation, or halt: the task is done. exit_enclave's
	// status was placed in a0 for the OS by the monitor.
	t.res.ExitValue = s.o.M.Cores[coreID].CPU.Reg(isa.RegA0)
	s.finish(t)
}

func (s *Scheduler) unbind(coreID int) {
	s.mu.Lock()
	s.current[coreID] = nil
	s.mu.Unlock()
}

func (s *Scheduler) requeue(t *schedTask) {
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	s.signal()
}

func (s *Scheduler) finish(t *schedTask) {
	s.mu.Lock()
	t.res.submitIdx = t.idx
	s.results = append(s.results, t.res)
	s.remaining--
	s.mu.Unlock()
	// Wake a parked worker: it either finds new state to act on or
	// observes the drained scheduler and chains the shutdown wake.
	s.signal()
}
