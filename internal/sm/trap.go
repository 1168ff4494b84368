package sm

import (
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
)

// HandleTrap is the monitor's machine-mode event entry point (paper
// Fig 1): every trap and interrupt on any core lands here. OS events
// are delegated to the OS — after an AEX if an enclave was running;
// enclave ECALLs are monitor API calls; faults may be delivered to an
// enclave-registered handler.
func (mon *Monitor) HandleTrap(c *machine.Core, tr *isa.Trap) machine.Disposition {
	slot := mon.readSlot(c.ID)
	enclaveRunning := slot.owner != api.DomainOS

	switch {
	case tr.Cause == isa.CauseHalt:
		// HALT is not a sanctioned enclave exit; treat it as a forced
		// exit so the core never reaches the OS with enclave state.
		if enclaveRunning {
			mon.stopThread(uint64(c.ID), 0, false)
		}
		return machine.DispHalt

	case tr.Cause.IsInterrupt():
		// The OS is always able to de-schedule an enclave by
		// interrupting it (§IV): perform an AEX, then delegate.
		if enclaveRunning {
			mon.stopThread(uint64(c.ID), 0, true)
		}
		return machine.DispReturnToOS

	case tr.Cause == isa.CauseECallU:
		if enclaveRunning {
			return mon.enclaveCall(c, slot)
		}
		// An ordinary process syscall: the monitor only forwards it.
		return machine.DispReturnToOS

	case tr.Cause.IsPageFault():
		if enclaveRunning {
			// A store fault may be a copy-on-write alias (snapshot
			// clones, frozen templates): the monitor copies the page
			// into the enclave's own memory and retries the store
			// before any fault is delivered anywhere.
			if tr.Cause == isa.CauseStorePageFault {
				if disp, handled := mon.cowFault(c, slot, tr); handled {
					return disp
				}
			}
			return mon.enclaveFault(c, slot, tr)
		}
		return machine.DispReturnToOS

	default:
		// Access faults, illegal instructions, breakpoints, misaligned
		// accesses: enclaves take an AEX; the OS gets the event.
		if enclaveRunning {
			mon.stopThread(uint64(c.ID), 0, true)
		}
		return machine.DispReturnToOS
	}
}

// slotView is a consistent snapshot of one core slot.
type slotView struct {
	owner uint64
	tid   uint64
}

// readSlot snapshots which domain core id currently executes.
func (mon *Monitor) readSlot(id int) slotView {
	s := &mon.cores[id]
	s.mu.Lock()
	v := slotView{owner: s.owner, tid: s.tid}
	s.mu.Unlock()
	return v
}

// enclaveFault delivers a fault to the enclave's registered handler if
// possible (enclaves can implement demand paging, §V-A), otherwise
// performs an AEX and delegates to the OS.
func (mon *Monitor) enclaveFault(c *machine.Core, slot slotView, tr *isa.Trap) machine.Disposition {
	if t, found := get[*Thread](mon, slot.tid); found {
		t.mu.Lock()
		if t.FaultPC != 0 && !t.inFault {
			t.inFault = true
			t.faultRegs = c.CPU.Regs
			t.faultPC = c.CPU.PC
			handlerPC, handlerSP := t.FaultPC, t.FaultSP
			t.mu.Unlock()
			c.CPU.PC = handlerPC
			c.CPU.SetReg(isa.RegSP, handlerSP)
			c.CPU.SetReg(isa.RegA0, uint64(tr.Cause))
			c.CPU.SetReg(isa.RegA1, tr.Value)
			return machine.DispResume
		}
		t.mu.Unlock()
	}
	mon.stopThread(uint64(c.ID), 0, true)
	return machine.DispReturnToOS
}

// enclaveCall funnels an ECALL from a running enclave into the unified
// dispatch table (§V-A: the SM API is implemented via machine events,
// much like a system call). The enclave's identity is derived from the
// trapping core's slot — never from anything the guest supplies — which
// is what makes Caller trustworthy for the per-domain authorization in
// dispatch.
func (mon *Monitor) enclaveCall(c *machine.Core, slot slotView) machine.Disposition {
	mon.objMu.RLock()
	e, _ := mon.objects[slot.owner].(*Enclave)
	t, _ := mon.objects[slot.tid].(*Thread)
	mon.objMu.RUnlock()
	if e == nil || t == nil {
		mon.stopThread(uint64(c.ID), 0, false)
		return machine.DispReturnToOS
	}

	req := api.Request{
		Caller: e.ID,
		Call:   api.Call(c.CPU.Reg(isa.RegA7)),
		Args: [6]uint64{
			c.CPU.Reg(isa.RegA0), c.CPU.Reg(isa.RegA1), c.CPU.Reg(isa.RegA2),
			c.CPU.Reg(isa.RegA3), c.CPU.Reg(isa.RegA4), c.CPU.Reg(isa.RegA5),
		},
	}
	// The core's one reused context: a core traps once at a time, and
	// no handler keeps the pointer past the call.
	ctx := &mon.cores[c.ID].call
	*ctx = callContext{core: c, enclave: e, thread: t}
	resp := mon.dispatch(req, ctx)
	if ctx.transferred {
		// Exit or resume: the handler already programmed the core.
		return ctx.disp
	}
	c.CPU.SetReg(isa.RegA0, uint64(resp.Status))
	c.CPU.SetReg(isa.RegA1, resp.Values[0])
	c.CPU.PC += isa.InstrSize
	return machine.DispResume
}

// enclaveVAtoPA translates an enclave virtual address through the
// enclave's private page tables with M-mode authority, confining every
// step of the walk to the enclave's own regions and the final target
// to its access view (own regions plus any borrowed from a snapshot
// template — a clone's table pages are always its own, but its aliased
// data pages live in the template's regions).
func (mon *Monitor) enclaveVAtoPA(e *Enclave, va uint64, acc pt.Access) (uint64, bool) {
	if !e.InEvrange(va) {
		return 0, false
	}
	layout := mon.machine.DRAM
	read := func(pa uint64) (uint64, bool) {
		if !e.Regions.ContainsRange(layout, pa, 8) {
			return 0, false
		}
		v, err := mon.machine.Mem.Load(pa, 8)
		return v, err == nil
	}
	res, fault := pt.Walk(read, e.RootPPN, va&pt.VAMask, acc, true)
	if fault != nil {
		return 0, false
	}
	if !e.accessRegions().ContainsRange(layout, res.PA, 1) {
		return 0, false
	}
	return res.PA, true
}

// readEnclave fills dst from enclave memory at va.
func (mon *Monitor) readEnclave(e *Enclave, va uint64, dst []byte) bool {
	for len(dst) > 0 {
		pa, ok := mon.enclaveVAtoPA(e, va, pt.Load)
		if !ok {
			return false
		}
		chunk := min(int(mem.PageSize-pa&mem.PageMask), len(dst))
		if err := mon.machine.Mem.ReadBytes(pa, dst[:chunk]); err != nil {
			return false
		}
		dst = dst[chunk:]
		va += uint64(chunk)
	}
	return true
}

// readCaller fills dst from the caller's memory at addr: an enclave VA
// through the enclave's tables, or for a host-side call (nil ctx) a PA
// that must lie wholly in OS-owned memory. writeCaller is its mirror.
// Every handler serving both domains moves caller buffers through this
// pair.
func (mon *Monitor) readCaller(ctx *callContext, addr uint64, dst []byte) bool {
	if ctx != nil {
		return mon.readEnclave(ctx.enclave, addr, dst)
	}
	return mon.osOwnsRange(addr, uint64(len(dst))) && mon.machine.Mem.ReadBytes(addr, dst) == nil
}

func (mon *Monitor) writeCaller(ctx *callContext, addr uint64, src []byte) bool {
	if ctx != nil {
		return mon.writeEnclave(ctx.enclave, addr, src)
	}
	return mon.osOwnsRange(addr, uint64(len(src))) && mon.machine.Mem.WriteBytes(addr, src) == nil
}

// writeEnclave copies data into enclave memory at va. A destination
// page the enclave still aliases copy-on-write is resolved through the
// same copy protocol a guest store would trigger, so monitor services
// writing into a clone (get_mail, get_field, attestation and
// key-agreement outputs) behave exactly as they do on the directly
// built template.
func (mon *Monitor) writeEnclave(e *Enclave, va uint64, data []byte) bool {
	for len(data) > 0 {
		pa, ok := mon.enclaveVAtoPA(e, va, pt.Store)
		if !ok {
			if !mon.resolveCOWForWrite(e, va) {
				return false
			}
			if pa, ok = mon.enclaveVAtoPA(e, va, pt.Store); !ok {
				return false
			}
		}
		chunk := int(mem.PageSize - pa&mem.PageMask)
		if chunk > len(data) {
			chunk = len(data)
		}
		if err := mon.machine.Mem.WriteBytes(pa, data[:chunk]); err != nil {
			return false
		}
		data = data[chunk:]
		va += uint64(chunk)
	}
	return true
}
