package isa

// Hooks for the machine's trace-compilation tier
// (internal/hw/machine/block.go). The tier runs hot straight-line runs
// of decoded instructions as fused segments: one switch over the opcode
// executes each register op and terminal, each case being ExecDecoded's
// register update for its op, with base cycle costs batched per
// segment. This file holds what the tier needs from the ISA beyond
// ExecDecoded's exported helpers (LoadSpec, StoreSpec, SignExtend,
// Trapped): the classes of instruction it fuses, their base costs, and
// the trap causes of its memory ops.

// BlockCost returns the base cycle cost ExecDecoded charges for op —
// the cost the block compiler batches per segment. Memory ops return 0:
// their cost is entirely bus cycles, charged at runtime by the block's
// memory-op body.
func BlockCost(op Op) uint64 {
	switch op {
	case OpMUL:
		return cycleMul
	case OpDIVU, OpREMU:
		return cycleDiv
	case OpJAL, OpJALR:
		return cycleJump
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return cycleBranch
	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpLWU, OpLD, OpSB, OpSH, OpSW, OpSD:
		return 0
	default:
		// ALU, LI, NOP (cycleALU) — and the system ops (cycleSystem),
		// which the compiler never fuses, share the same base cost.
		return cycleALU
	}
}

// IsALU reports whether op is computational: an ALU register or
// immediate op, LI or NOP. These cannot trap, and update at most rd.
func IsALU(op Op) bool {
	switch op {
	case OpNOP, OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA, OpSLT, OpSLTU,
		OpMUL, OpDIVU, OpREMU, OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI,
		OpSLTI, OpSLTIU, OpLI:
		return true
	}
	return false
}

// IsControl reports whether op transfers control: a conditional branch,
// JAL or JALR.
func IsControl(op Op) bool {
	switch op {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpJAL, OpJALR:
		return true
	}
	return false
}

// IsLoad reports whether op is a load instruction.
func IsLoad(op Op) bool {
	switch op {
	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpLWU, OpLD:
		return true
	}
	return false
}

// IsStore reports whether op is a store instruction.
func IsStore(op Op) bool {
	switch op {
	case OpSB, OpSH, OpSW, OpSD:
		return true
	}
	return false
}

// LoadCause maps a memory fault to the trap cause a load raises.
func (f *MemFault) LoadCause() Cause { return f.trapCause(accLoad) }

// StoreCause maps a memory fault to the trap cause a store raises.
func (f *MemFault) StoreCause() Cause { return f.trapCause(accStore) }
