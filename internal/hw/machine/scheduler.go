package machine

import (
	"fmt"
	"sync"
)

// SchedMode selects how the Scheduler drives the machine's harts.
type SchedMode int

// Scheduler modes.
const (
	// SchedDeterministic interleaves the cores round-robin on one
	// goroutine, a fixed quantum of host-driver slices at a time. Every
	// architectural observable — registers, cycles, cache and TLB
	// statistics, trap order — is a pure function of the inputs, so
	// tests and experiments are bit-reproducible.
	SchedDeterministic SchedMode = iota
	// SchedParallel runs one goroutine per core: genuinely concurrent
	// multi-hart execution for throughput. Aggregate behavior is
	// correct under the monitor's invariants but interleaving (and so
	// per-run statistics) is host-scheduling dependent.
	SchedParallel
)

func (m SchedMode) String() string {
	switch m {
	case SchedDeterministic:
		return "deterministic"
	case SchedParallel:
		return "parallel"
	default:
		return fmt.Sprintf("sched(%d)", int(m))
	}
}

// Scheduler drives all (or a subset of) the machine's cores through a
// per-core driver function, in either execution mode. It is the
// machine-layer half of multi-hart execution: the OS layer decides what
// runs on each core (internal/os.Scheduler); this type decides how the
// per-core drivers share host time.
type Scheduler struct {
	M    *Machine
	Mode SchedMode
}

// NewScheduler returns a scheduler for the machine. Parallel mode flips
// the machine into concurrent operation (shared-structure locking) for
// the duration of each Drive call.
func NewScheduler(m *Machine, mode SchedMode) *Scheduler {
	return &Scheduler{M: m, Mode: mode}
}

// Drive runs one driver slice per core until every driver has reported
// completion. slice(coreID) performs one bounded unit of work on the
// core — typically program the core, Run it for a quantum of steps, and
// service the result — and returns false when that core has nothing
// left to do.
//
// In deterministic mode the cores are sliced round-robin in core-ID
// order on the calling goroutine: core i's k-th slice always follows
// core i-1's k-th slice, so the interleaving (and everything downstream
// of it) is reproducible. In parallel mode each core's slices run on a
// dedicated goroutine until done; Drive returns when all goroutines
// finish. In both modes slice is invoked for one core from at most one
// goroutine at a time.
func (s *Scheduler) Drive(coreIDs []int, slice func(coreID int) bool) {
	switch s.Mode {
	case SchedParallel:
		s.M.SetConcurrent(true)
		var wg sync.WaitGroup
		for _, id := range coreIDs {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for slice(id) {
				}
			}(id)
		}
		wg.Wait()
	default:
		// done[i] marks coreIDs[i] finished; the array keeps the
		// common machine sizes off the heap.
		var small [16]bool
		done := small[:]
		if len(coreIDs) > len(small) {
			done = make([]bool, len(coreIDs))
		}
		for remaining := len(coreIDs); remaining > 0; {
			for i, id := range coreIDs {
				if !done[i] && !slice(id) {
					done[i] = true
					remaining--
				}
			}
		}
	}
}
