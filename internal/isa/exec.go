package isa

// Bus is the CPU's window onto the machine: every fetch, load and store
// goes through it, which is where the machine applies translation,
// isolation checks and cache timing. Cycles returned are added to the
// core's cycle counter.
type Bus interface {
	// FetchInstr reads the 8-byte instruction word at va.
	FetchInstr(va uint64) (word uint64, cycles uint64, fault *MemFault)
	// Load reads width bytes at va.
	Load(va uint64, width int) (val uint64, cycles uint64, fault *MemFault)
	// Store writes width bytes at va.
	Store(va uint64, width int, val uint64) (cycles uint64, fault *MemFault)
}

// CPU is the architectural state of one SRV64 hart.
type CPU struct {
	// Regs is the register file. Register fields are taken mod 32, and
	// x0 is hardwired in storage: Regs[0] is never written (SetReg
	// discards x0 writes, and every other writer zeroes Regs or restores
	// a saved copy of it), so a direct Regs[r] read is exact for x0.
	Regs   [NumRegs]uint64
	PC     uint64
	Mode   Priv
	Cycles uint64
	Halted bool

	// trap is the reusable buffer Step returns traps in, so the hot
	// trap-dispatch path performs no heap allocation. A returned *Trap
	// is valid until the next Step on this CPU; holders that outlive
	// that must copy it (Machine.Run copies the trap that ends a run
	// into its core's result buffer).
	trap Trap
}

// Reg returns register r, the field taken mod 32, with x0 reading as
// zero.
func (c *CPU) Reg(r uint8) uint64 {
	if r %= NumRegs; r != RegZero {
		return c.Regs[r]
	}
	return 0
}

// SetReg writes register r, the field taken mod 32; writes to x0 (and
// to its aliases 32, 64, ...) are discarded.
func (c *CPU) SetReg(r uint8, v uint64) {
	if r %= NumRegs; r != RegZero {
		c.Regs[r] = v
	}
}

// Per-instruction base cycle costs (memory latency is added by the Bus).
const (
	cycleALU    = 1
	cycleMul    = 3
	cycleDiv    = 12
	cycleBranch = 1
	cycleJump   = 1
	cycleSystem = 1
)

func sext(imm int32) uint64 { return uint64(int64(imm)) }

// Trapped fills the CPU's trap buffer and returns it. The returned Trap
// obeys Step's lifetime contract: valid until the next trap on this CPU.
func (c *CPU) Trapped(cause Cause, pc, value uint64) *Trap {
	c.trap = Trap{Cause: cause, PC: pc, Value: value}
	return &c.trap
}

// Step executes one instruction. It returns nil if execution may
// continue, or the Trap that stopped it. The PC is left at the trapping
// instruction for traps (so the handler can resume or skip it) and at
// the next instruction otherwise. The returned Trap points into a
// per-CPU buffer valid until the next Step.
//
// Step is the reference fetch-decode-execute sequence. A caller with a
// faster fetch (the machine's decoded-instruction cache) composes the
// same sequence from the pieces — PreStep, its own fetch, FetchFault
// on a fetch fault, ExecDecoded otherwise — as machine.Run does;
// modeled cycles and trap behavior must be identical either way.
func (c *CPU) Step(bus Bus) *Trap {
	if tr := c.PreStep(); tr != nil {
		return tr
	}
	w, cyc, fault := bus.FetchInstr(c.PC)
	c.Cycles += cyc
	if fault != nil {
		return c.FetchFault(fault)
	}
	return c.ExecDecoded(Decode(w), bus)
}

// PreStep checks the pre-fetch conditions of a step (halt latch, PC
// alignment), returning the trap that stops the step, or nil if the
// caller should proceed to fetch at PC.
func (c *CPU) PreStep() *Trap {
	if c.Halted {
		return c.Trapped(CauseHalt, c.PC, 0)
	}
	if c.PC&(InstrSize-1) != 0 {
		return c.Trapped(CauseMisalignedFetch, c.PC, c.PC)
	}
	return nil
}

// FetchFault converts a fetch-time memory fault into its trap.
func (c *CPU) FetchFault(f *MemFault) *Trap {
	return c.Trapped(f.trapCause(accFetch), c.PC, f.Addr)
}

// ExecDecoded executes one already-fetched instruction at PC. in is
// one machine word, passed by value.
func (c *CPU) ExecDecoded(in Instr, bus Bus) *Trap {
	nextPC := c.PC + InstrSize

	switch in.Op {
	case OpNOP:
		c.Cycles += cycleALU

	case OpHALT:
		c.Halted = true
		c.Cycles += cycleSystem
		return c.Trapped(CauseHalt, c.PC, 0)

	case OpADD:
		c.SetReg(in.Rd, c.Reg(in.Rs1)+c.Reg(in.Rs2))
		c.Cycles += cycleALU
	case OpSUB:
		c.SetReg(in.Rd, c.Reg(in.Rs1)-c.Reg(in.Rs2))
		c.Cycles += cycleALU
	case OpAND:
		c.SetReg(in.Rd, c.Reg(in.Rs1)&c.Reg(in.Rs2))
		c.Cycles += cycleALU
	case OpOR:
		c.SetReg(in.Rd, c.Reg(in.Rs1)|c.Reg(in.Rs2))
		c.Cycles += cycleALU
	case OpXOR:
		c.SetReg(in.Rd, c.Reg(in.Rs1)^c.Reg(in.Rs2))
		c.Cycles += cycleALU
	case OpSLL:
		c.SetReg(in.Rd, c.Reg(in.Rs1)<<(c.Reg(in.Rs2)&63))
		c.Cycles += cycleALU
	case OpSRL:
		c.SetReg(in.Rd, c.Reg(in.Rs1)>>(c.Reg(in.Rs2)&63))
		c.Cycles += cycleALU
	case OpSRA:
		c.SetReg(in.Rd, uint64(int64(c.Reg(in.Rs1))>>(c.Reg(in.Rs2)&63)))
		c.Cycles += cycleALU
	case OpSLT:
		c.SetReg(in.Rd, b2u(int64(c.Reg(in.Rs1)) < int64(c.Reg(in.Rs2))))
		c.Cycles += cycleALU
	case OpSLTU:
		c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) < c.Reg(in.Rs2)))
		c.Cycles += cycleALU
	case OpMUL:
		c.SetReg(in.Rd, c.Reg(in.Rs1)*c.Reg(in.Rs2))
		c.Cycles += cycleMul
	case OpDIVU:
		d := c.Reg(in.Rs2)
		if d == 0 {
			c.SetReg(in.Rd, ^uint64(0)) // RISC-V semantics: no trap
		} else {
			c.SetReg(in.Rd, c.Reg(in.Rs1)/d)
		}
		c.Cycles += cycleDiv
	case OpREMU:
		d := c.Reg(in.Rs2)
		if d == 0 {
			c.SetReg(in.Rd, c.Reg(in.Rs1))
		} else {
			c.SetReg(in.Rd, c.Reg(in.Rs1)%d)
		}
		c.Cycles += cycleDiv

	case OpADDI:
		c.SetReg(in.Rd, c.Reg(in.Rs1)+sext(in.Imm))
		c.Cycles += cycleALU
	case OpANDI:
		c.SetReg(in.Rd, c.Reg(in.Rs1)&sext(in.Imm))
		c.Cycles += cycleALU
	case OpORI:
		c.SetReg(in.Rd, c.Reg(in.Rs1)|sext(in.Imm))
		c.Cycles += cycleALU
	case OpXORI:
		c.SetReg(in.Rd, c.Reg(in.Rs1)^sext(in.Imm))
		c.Cycles += cycleALU
	case OpSLLI:
		c.SetReg(in.Rd, c.Reg(in.Rs1)<<(uint32(in.Imm)&63))
		c.Cycles += cycleALU
	case OpSRLI:
		c.SetReg(in.Rd, c.Reg(in.Rs1)>>(uint32(in.Imm)&63))
		c.Cycles += cycleALU
	case OpSRAI:
		c.SetReg(in.Rd, uint64(int64(c.Reg(in.Rs1))>>(uint32(in.Imm)&63)))
		c.Cycles += cycleALU
	case OpSLTI:
		c.SetReg(in.Rd, b2u(int64(c.Reg(in.Rs1)) < int64(sext(in.Imm))))
		c.Cycles += cycleALU
	case OpSLTIU:
		c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) < sext(in.Imm)))
		c.Cycles += cycleALU
	case OpLI:
		c.SetReg(in.Rd, sext(in.Imm))
		c.Cycles += cycleALU

	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpLWU, OpLD:
		width, signed := LoadSpec(in.Op)
		addr := c.Reg(in.Rs1) + sext(in.Imm)
		val, cyc, fault := bus.Load(addr, width)
		c.Cycles += cyc
		if fault != nil {
			return c.Trapped(fault.trapCause(accLoad), c.PC, fault.Addr)
		}
		if signed {
			val = SignExtend(val, width)
		}
		c.SetReg(in.Rd, val)

	case OpSB, OpSH, OpSW, OpSD:
		width := StoreSpec(in.Op)
		addr := c.Reg(in.Rs1) + sext(in.Imm)
		cyc, fault := bus.Store(addr, width, c.Reg(in.Rs2))
		c.Cycles += cyc
		if fault != nil {
			return c.Trapped(fault.trapCause(accStore), c.PC, fault.Addr)
		}

	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		if BranchTaken(in.Op, c.Reg(in.Rs1), c.Reg(in.Rs2)) {
			nextPC = c.PC + sext(in.Imm)
		}
		c.Cycles += cycleBranch

	case OpJAL:
		c.SetReg(in.Rd, c.PC+InstrSize)
		nextPC = c.PC + sext(in.Imm)
		c.Cycles += cycleJump
	case OpJALR:
		target := c.Reg(in.Rs1) + sext(in.Imm)
		c.SetReg(in.Rd, c.PC+InstrSize)
		nextPC = target
		c.Cycles += cycleJump

	case OpECALL:
		c.Cycles += cycleSystem
		cause := CauseECallU
		if c.Mode == PrivS {
			cause = CauseECallS
		}
		return c.Trapped(cause, c.PC, c.Reg(RegA7))
	case OpEBREAK:
		c.Cycles += cycleSystem
		return c.Trapped(CauseBreakpoint, c.PC, 0)
	case OpRDCYCLE:
		c.SetReg(in.Rd, c.Cycles)
		c.Cycles += cycleSystem

	default:
		// Decode is lossless, so the original word is reconstructible.
		return c.Trapped(CauseIllegal, c.PC, in.Encode())
	}

	c.PC = nextPC
	return nil
}

// LoadSpec returns the access width of a load opcode and whether it
// sign-extends.
func LoadSpec(op Op) (width int, signed bool) {
	switch op {
	case OpLB:
		return 1, true
	case OpLBU:
		return 1, false
	case OpLH:
		return 2, true
	case OpLHU:
		return 2, false
	case OpLW:
		return 4, true
	case OpLWU:
		return 4, false
	default:
		return 8, false
	}
}

// StoreSpec returns the access width of a store opcode.
func StoreSpec(op Op) int {
	switch op {
	case OpSB:
		return 1
	case OpSH:
		return 2
	case OpSW:
		return 4
	default:
		return 8
	}
}

// BranchTaken reports whether the conditional branch op is taken on
// operands a and b.
func BranchTaken(op Op, a, b uint64) bool {
	switch op {
	case OpBEQ:
		return a == b
	case OpBNE:
		return a != b
	case OpBLT:
		return int64(a) < int64(b)
	case OpBGE:
		return int64(a) >= int64(b)
	case OpBLTU:
		return a < b
	default:
		return a >= b
	}
}

// SignExtend sign-extends the low width bytes of v, as loads of signed
// sub-word widths do.
func SignExtend(v uint64, width int) uint64 {
	shift := uint(64 - 8*width)
	return uint64(int64(v<<shift) >> shift)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
