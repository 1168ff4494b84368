package machine

import (
	"errors"
	"fmt"

	"sanctorum/internal/isa"
)

// StopReason explains why Run returned.
type StopReason int

// Stop reasons.
const (
	StopReturnToOS StopReason = iota // firmware delegated control to the OS
	StopHalt                         // core halted
	StopMaxSteps                     // step budget exhausted
)

func (r StopReason) String() string {
	switch r {
	case StopReturnToOS:
		return "return-to-os"
	case StopHalt:
		return "halt"
	case StopMaxSteps:
		return "max-steps"
	default:
		return fmt.Sprintf("stop(%d)", int(r))
	}
}

// RunResult reports how a Run ended.
type RunResult struct {
	Reason StopReason
	// Trap is the final trap, if any. It points into a per-core buffer
	// that stays valid until that core's next Run: a caller that keeps
	// the trap past that must copy it.
	Trap  *isa.Trap
	Steps int // instructions retired
}

// ErrNoFirmware is returned when a trap occurs with no firmware
// installed; a machine without a security monitor cannot field events.
var ErrNoFirmware = errors.New("machine: trap with no firmware installed")

// Bits of Core.pending, the per-instruction asynchronous-event poll.
const (
	pendingIRQ uint32 = 1 << iota // external interrupt (InterruptCore)
	pendingIPI                    // inter-processor mailbox delivery (ipi.go)
)

// InterruptCore latches an external interrupt on the core; it is
// delivered at the next instruction boundary. The untrusted OS uses this
// to de-schedule an enclave (forcing an AEX via the firmware). The latch
// is atomic, so any hart — or an OS goroutine racing a running core —
// may post it.
func (m *Machine) InterruptCore(id int) {
	m.Cores[id].pending.Or(pendingIRQ)
}

// Run executes instructions on the core until the firmware hands
// control back to the OS, the core halts, or maxSteps retire. All traps
// — synchronous faults, ECALLs, timer and external interrupts — are
// routed to the machine's firmware, mirroring the paper's Fig 1 where
// the security monitor receives every event first.
//
// Run holds the core's runMu for its whole duration: one goroutine
// drives one core, and IPI posters use the same mutex to execute
// mailbox requests on behalf of cores that are not running (ipi.go).
//
// The loop is structured for throughput: while neither the timer nor
// an external interrupt is armed — the overwhelmingly common state —
// the per-instruction event poll reduces to one atomic (plain, on our
// host ISAs) load of c.pending, and the timer comparison is re-checked
// only after a trap (the only point where firmware can arm it on this
// core).
func (m *Machine) Run(coreID int, maxSteps int) (RunResult, error) {
	c := m.Cores[coreID]
	c.runMu.Lock()
	defer c.runMu.Unlock()
	defer m.publishCycles(c)
	steps := 0
	for steps < maxSteps {
		// Asynchronous events are checked at instruction boundaries.
		if tr := c.takeInterrupt(); tr != nil {
			res, done, err := m.dispatch(c, tr, steps)
			if done {
				return res, err
			}
			continue
		}
		if c.TimerCmp == 0 {
			// Hot loop: no timer armed. pending is still polled each
			// step (InterruptCore or an IPI may latch it at any time).
			// The step sequence is spelled out here so the fetch — the
			// interpreter's hottest call — goes to FetchDecoded
			// directly instead of through an interface.
			//
			// The block engine hooks in at control-transfer targets:
			// seqPC tracks where a purely sequential fetch would land,
			// so the block lookup (and, on misses, the heat counting
			// that drives compilation) runs only when the PC arrived
			// via a branch, jump, trap return or run entry — the only
			// PCs that can head a block. Block execution polls pending
			// at block boundaries, which are instruction boundaries;
			// a trap from inside a block arrives here exactly like a
			// per-instruction trap, with steps already advanced.
			cpu := &c.CPU
			c.seqPC = ^uint64(0)
			for steps < maxSteps && c.pending.Load() == 0 {
				var tr *isa.Trap
				if !c.fastPath {
					tr = cpu.Step(c)
					steps++
				} else {
					if pc := cpu.PC; pc != c.seqPC {
						if b := c.blockFor(pc); b != nil && b.n <= maxSteps-steps {
							n, btr := c.execBlock(b, maxSteps-steps)
							if n > 0 || btr != nil {
								steps += n
								tr = btr
								c.seqPC = ^uint64(0)
								goto delivered
							}
						}
					}
					c.seqPC = cpu.PC + isa.InstrSize
					if tr = cpu.PreStep(); tr == nil {
						if e := c.fetchHit(cpu.PC); e != nil {
							cpu.Cycles += c.l1Hit
							tr = cpu.ExecDecoded(e.in, c)
						} else {
							in, cyc, fault := c.fetchSlow(cpu.PC)
							cpu.Cycles += cyc
							if fault != nil {
								tr = cpu.FetchFault(fault)
							} else {
								tr = cpu.ExecDecoded(in, c)
							}
						}
					}
					steps++
				}
			delivered:
				if tr != nil {
					res, done, err := m.dispatch(c, tr, steps)
					if done {
						return res, err
					}
					// The firmware may have redirected the PC; the next
					// instruction is a transfer target again.
					c.seqPC = ^uint64(0)
					if c.TimerCmp != 0 {
						break // firmware armed the timer; resume polling
					}
				}
			}
			continue
		}
		tr := c.step()
		steps++
		if tr == nil {
			continue
		}
		res, done, err := m.dispatch(c, tr, steps)
		if done {
			return res, err
		}
	}
	return RunResult{Reason: StopMaxSteps, Steps: steps}, nil
}

// step retires one instruction: CPU.Step's sequence with the fetch
// served by the decode cache. The hot loop in Run spells out the same
// sequence inline (plus the fetchHit short-circuit); both copies must
// stay in lockstep with CPU.Step.
func (c *Core) step() *isa.Trap {
	if !c.fastPath {
		return c.CPU.Step(c)
	}
	cpu := &c.CPU
	if tr := cpu.PreStep(); tr != nil {
		return tr
	}
	in, cyc, fault := c.FetchDecoded(cpu.PC)
	cpu.Cycles += cyc
	if fault != nil {
		return cpu.FetchFault(fault)
	}
	return cpu.ExecDecoded(in, c)
}

// takeInterrupt returns a pending asynchronous trap, or nil. IPI
// mailbox deliveries are acknowledged here — at an instruction boundary,
// which is the architectural contract of an inter-processor interrupt —
// without raising a trap (they carry monitor work, not events for the
// firmware's state machine). The trap is returned in a per-core buffer
// valid until the next interrupt.
func (c *Core) takeInterrupt() *isa.Trap {
	if p := c.pending.Load(); p != 0 {
		if p&pendingIPI != 0 {
			c.drainIPIs()
		}
		if p&pendingIRQ != 0 {
			c.pending.And(^pendingIRQ)
			c.irqTrap = isa.Trap{Cause: isa.CauseExternalInterrupt, PC: c.CPU.PC}
			return &c.irqTrap
		}
	}
	if c.TimerCmp != 0 && c.CPU.Cycles >= c.TimerCmp {
		c.TimerCmp = 0 // one-shot
		c.irqTrap = isa.Trap{Cause: isa.CauseTimerInterrupt, PC: c.CPU.PC}
		return &c.irqTrap
	}
	return nil
}

// dispatch routes a trap to the firmware. Traps arrive in reusable
// per-core buffers that the next step overwrites, so a trap that ends
// the Run is copied into the core's result buffer (resTrap), which
// nothing touches until the core's next Run.
func (m *Machine) dispatch(c *Core, tr *isa.Trap, steps int) (RunResult, bool, error) {
	// Publish modeled cycles before the firmware runs so telemetry
	// stamps taken at the trap seam see the work retired up to this
	// trap.
	m.publishCycles(c)
	if tr.Cause == isa.CauseHalt {
		// The firmware is notified (it may need to scrub protection-
		// domain state off the core) but a halted core always stops.
		if m.Firmware != nil {
			m.Firmware.HandleTrap(c, tr)
		}
		c.resTrap = *tr
		return RunResult{Reason: StopHalt, Trap: &c.resTrap, Steps: steps}, true, nil
	}
	if m.Firmware == nil {
		c.resTrap = *tr
		return RunResult{Trap: &c.resTrap, Steps: steps}, true, ErrNoFirmware
	}
	switch m.Firmware.HandleTrap(c, tr) {
	case DispResume:
		return RunResult{}, false, nil
	case DispHalt:
		c.resTrap = *tr
		return RunResult{Reason: StopHalt, Trap: &c.resTrap, Steps: steps}, true, nil
	default:
		c.resTrap = *tr
		return RunResult{Reason: StopReturnToOS, Trap: &c.resTrap, Steps: steps}, true, nil
	}
}

// DMATransfer models a DMA device copying n bytes from src to dst
// (physical addresses). The transfer is subject to the SM-installed DMA
// policy; with no policy installed all DMA is denied, the safe default
// the paper requires.
func (m *Machine) DMATransfer(src, dst, n uint64) error {
	if m.DMAAllowed == nil || !m.DMAAllowed(src, n) || !m.DMAAllowed(dst, n) {
		return fmt.Errorf("machine: DMA transfer %#x->%#x (%d bytes) denied", src, dst, n)
	}
	buf := make([]byte, n)
	if err := m.Mem.ReadBytes(src, buf); err != nil {
		return err
	}
	return m.Mem.WriteBytes(dst, buf)
}
