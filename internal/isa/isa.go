// Package isa defines SRV64, the small RISC-V-flavoured instruction set
// executed by the simulated machine's cores. Untrusted OS user code and
// enclave code run as SRV64 programs, so enclave measurement hashes real
// loaded pages, page faults and asynchronous enclave exits interrupt
// real programs, and cache-timing attackers observe the latency of real
// memory accesses.
//
// The encoding is a fixed 8-byte word — opcode, rd, rs1, rs2, and a
// 32-bit immediate — chosen for trivial decode; the semantics follow
// RV64I closely (plus MUL/DIVU/REMU and a cycle-counter read, which the
// attack code in internal/adversary uses as its timing source). The
// register fields are a byte wide and taken mod 32, so 32 names x0 just
// as 0 does. x0 reads as zero and is hardwired in storage: CPU.Regs[0]
// is never written.
package isa

import "fmt"

// Instruction geometry.
const (
	InstrSize = 8 // bytes per instruction
	NumRegs   = 32
)

// Op is an SRV64 opcode.
type Op uint8

// Opcodes.
const (
	OpNOP Op = iota
	OpHALT

	// rd = rs1 op rs2
	OpADD
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpSLT
	OpSLTU
	OpMUL
	OpDIVU
	OpREMU

	// rd = rs1 op sext(imm)
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLLI
	OpSRLI
	OpSRAI
	OpSLTI
	OpSLTIU

	// rd = sext(imm)
	OpLI

	// Loads: rd = mem[rs1 + sext(imm)]
	OpLB
	OpLBU
	OpLH
	OpLHU
	OpLW
	OpLWU
	OpLD

	// Stores: mem[rs1 + sext(imm)] = rs2
	OpSB
	OpSH
	OpSW
	OpSD

	// Branches: if cond(rs1, rs2) then pc += sext(imm)
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Jumps.
	OpJAL  // rd = pc+8; pc += sext(imm)
	OpJALR // rd = pc+8; pc = rs1 + sext(imm)

	// System.
	OpECALL
	OpEBREAK
	OpRDCYCLE // rd = core cycle counter

	opCount // sentinel
)

var opNames = [...]string{
	OpNOP: "nop", OpHALT: "halt",
	OpADD: "add", OpSUB: "sub", OpAND: "and", OpOR: "or", OpXOR: "xor",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra", OpSLT: "slt", OpSLTU: "sltu",
	OpMUL: "mul", OpDIVU: "divu", OpREMU: "remu",
	OpADDI: "addi", OpANDI: "andi", OpORI: "ori", OpXORI: "xori",
	OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai", OpSLTI: "slti", OpSLTIU: "sltiu",
	OpLI: "li",
	OpLB: "lb", OpLBU: "lbu", OpLH: "lh", OpLHU: "lhu", OpLW: "lw", OpLWU: "lwu", OpLD: "ld",
	OpSB: "sb", OpSH: "sh", OpSW: "sw", OpSD: "sd",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpBLTU: "bltu", OpBGEU: "bgeu",
	OpJAL: "jal", OpJALR: "jalr",
	OpECALL: "ecall", OpEBREAK: "ebreak", OpRDCYCLE: "rdcycle",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Encode packs the instruction into its 8-byte little-endian word.
func (i Instr) Encode() uint64 {
	return uint64(i.Op) |
		uint64(i.Rd)<<8 |
		uint64(i.Rs1)<<16 |
		uint64(i.Rs2)<<24 |
		uint64(uint32(i.Imm))<<32
}

// Decode unpacks an 8-byte instruction word.
func Decode(w uint64) Instr {
	return Instr{
		Op:  Op(w & 0xFF),
		Rd:  uint8(w >> 8),
		Rs1: uint8(w >> 16),
		Rs2: uint8(w >> 24),
		Imm: int32(uint32(w >> 32)),
	}
}

func (i Instr) String() string {
	return fmt.Sprintf("%s x%d, x%d, x%d, %d", i.Op, i.Rd, i.Rs1, i.Rs2, i.Imm)
}

// Register ABI names used throughout the repository: x0 is hardwired
// zero, x1 the link register, x2 the stack pointer, x10..x17 argument
// registers a0..a7. ECALLs pass the call number in a7 and arguments in
// a0..a5; results return in a0 (and a1).
const (
	RegZero = 0
	RegRA   = 1
	RegSP   = 2
	RegA0   = 10
	RegA1   = 11
	RegA2   = 12
	RegA3   = 13
	RegA4   = 14
	RegA5   = 15
	RegA6   = 16
	RegA7   = 17
	RegT0   = 5
	RegT1   = 6
	RegT2   = 7
	RegS0   = 8
	RegS1   = 9
)
