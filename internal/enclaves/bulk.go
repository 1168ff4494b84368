package enclaves

// Bulk-serving workers (monitor calls 0x50–0x54, DESIGN.md §14): ring
// servers whose request payloads are scatter-gather descriptors into a
// monitor-granted shared buffer, so the data plane moves multi-KB
// values while every message stays 64 bytes.
//
// A bulk worker boots like a ring worker — discover the per-clone ring
// ids through get_field — plus two bulk-specific steps the measured
// image cannot embed: it discovers its grant through
// get_field(enclave_grants), and it learns the *virtual address* to map
// the buffer at from a one-message setup handshake. The VA cannot be a
// measured constant because under Sanctum every enclave resolves
// non-evrange addresses through the one global OS page table, so each
// worker of a gateway must map its own buffer at a distinct VA; the
// gateway picks the addresses and sends each worker its own as the
// first (plain) message on the request ring. After bulk_map the worker
// enters the ordinary park/recv/transform/send loop, draining requests
// with bulk_recv (releasing their descriptor in-flight pins) and
// replying with plain ring sends — replies are application echoes that
// need not parse as descriptor lists.
//
// The template must be built with a shared window at l.SharedVA: the
// bulk VAs live in the same 2 MiB leaf, and bulk_map requires the leaf
// table to exist (it allocates nothing). Clones inherit the copied
// tables, then write their private PTEs.

import (
	"encoding/binary"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// Bulk-server private data-page offsets (continuing the ring-server
// map: dRingKV ends at 3072).
const (
	dBulkDir = 3072 // 24 bytes: FieldEnclaveGrants directory (1 entry)
	dBulkVA  = 3096 // bulk window VA received in the setup message
)

// Additional registers the bulk servers reserve (x18/x19 and x28 —
// outside the a0..a7 ECALL window, the r* set above, and the assembler
// temp x31).
const (
	rTmp5   = 18
	rTmp6   = 19
	rStride = 28 // page stride (4096); ADDI immediates stop at ±2047
)

// BulkKVSlots is the number of value slots the bulk KV server keeps;
// each slot is one page, so values up to 4 KiB round-trip.
const BulkKVSlots = 8

// BulkKVSlotsVA returns the base VA of the KV slot pages (inside the
// evrange, clear of the code/data/stack/array pages and SpecN stacks).
func BulkKVSlotsVA(l Layout) uint64 { return l.EvBase + 0x20000 }

// bulkServer emits the shared bulk serve loop: ring discovery exactly
// as ringServer, then grant discovery, the setup-message handshake,
// bulk_map, and the park/recv/transform/send loop over
// bulk_recv/bulk_send. transform sees the ringServer contract (rTmp2 =
// record base, rTmp3 = rData+64·idx) plus the bulk window base at
// [rData+dBulkVA]; it may clobber rTmp4..rTmp6 and a3..a6.
func bulkServer(l Layout, transform func(p *asm.Program)) *asm.Program {
	p := asm.New()
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "fresh")
	ecall(p, api.CallResumeAEX) // does not return on success
	p.Label("fresh")
	p.Li64(rData, l.DataVA)
	p.Li(rStride, int32(mem.PageSize))
	// Discover this worker's rings: the consumer entry is the request
	// ring (rAcc), the producer entry the response ring (rShared).
	p.Li(isa.RegA0, int32(api.FieldEnclaveRings))
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dRingDir)
	p.Li(isa.RegA2, 32)
	ecall(p, api.CallGetField)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "die")
	p.I(isa.OpLD, rAcc, rData, 0, dRingDir)       // entry 0 id
	p.I(isa.OpLD, rShared, rData, 0, dRingDir+16) // entry 1 id
	p.I(isa.OpLD, rTmp4, rData, 0, dRingDir+8)    // entry 0 role
	p.Branch(isa.OpBEQ, rTmp4, isa.RegZero, "grant")
	p.I(isa.OpADD, rTmp4, rAcc, isa.RegZero, 0) // swap: rAcc=req, rShared=resp
	p.I(isa.OpADD, rAcc, rShared, isa.RegZero, 0)
	p.I(isa.OpADD, rShared, rTmp4, isa.RegZero, 0)

	// Discover the grant: id ‖ role ‖ byte size.
	p.Label("grant")
	p.Li(isa.RegA0, int32(api.FieldEnclaveGrants))
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dBulkDir)
	p.Li(isa.RegA2, 24)
	ecall(p, api.CallGetField)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "die")

	// Setup handshake: the first message on the request ring is plain
	// (not scatter-gather) and carries the bulk window VA in word 0.
	p.Label("setup_park")
	p.I(isa.OpADD, isa.RegA0, rAcc, isa.RegZero, 0)
	ecall(p, api.CallRingPark)
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "setup_recv")
	p.Li(rTmp4, int32(api.ErrRetry))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "setup_park")
	p.J("die")
	p.Label("setup_recv")
	p.I(isa.OpADD, isa.RegA0, rAcc, isa.RegZero, 0)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dRingRecv)
	p.Li(isa.RegA2, 1)
	ecall(p, api.CallRingRecv)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "setup_park")
	p.I(isa.OpLD, rTmp4, rData, 0, dRingRecv+api.RingStampSize)
	p.I(isa.OpSD, 0, rData, rTmp4, dBulkVA)

	// Accept the grant: bulk_map(id, va), retrying transient contention.
	p.Label("map")
	p.I(isa.OpLD, isa.RegA0, rData, 0, dBulkDir)
	p.I(isa.OpLD, isa.RegA1, rData, 0, dBulkVA)
	ecall(p, api.CallBulkMap)
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "serve")
	p.Li(rTmp4, int32(api.ErrRetry))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "map")
	p.J("die")

	p.Label("serve")
	// thread_park(req ring): blocks until messages arrive; ErrRetry is
	// transient (§V-A), anything else the shutdown signal.
	p.I(isa.OpADD, isa.RegA0, rAcc, isa.RegZero, 0)
	ecall(p, api.CallRingPark)
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "drain")
	p.Li(rTmp4, int32(api.ErrRetry))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "serve")
	p.J("die")
	p.Label("drain")
	// bulk_recv drains only this grant's descriptor run; ErrInvalidValue
	// means the head message is a stray plain one (or a sibling drained
	// the run) — park again rather than die.
	p.I(isa.OpADD, isa.RegA0, rAcc, isa.RegZero, 0)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dRingRecv)
	p.Li(isa.RegA2, RingServeBatch)
	p.I(isa.OpLD, isa.RegA3, rData, 0, dBulkDir)
	ecall(p, api.CallBulkRecv)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "serve")
	p.I(isa.OpADD, rTmp1, isa.RegA1, isa.RegZero, 0) // n records

	p.Li(rIdx, 0)
	p.Label("xform")
	p.Branch(isa.OpBEQ, rIdx, rTmp1, "reply")
	// rTmp2 = rData + 104·idx (record base), rTmp3 = rData + 64·idx.
	p.I(isa.OpSLLI, rTmp2, rIdx, 0, 3)
	p.I(isa.OpSLLI, rTmp3, rIdx, 0, 5)
	p.I(isa.OpADD, rTmp2, rTmp2, rTmp3, 0)
	p.I(isa.OpSLLI, rTmp3, rIdx, 0, 6)
	p.I(isa.OpADD, rTmp2, rTmp2, rTmp3, 0)
	p.I(isa.OpADD, rTmp2, rTmp2, rData, 0)
	p.I(isa.OpSLLI, rTmp3, rIdx, 0, 6)
	p.I(isa.OpADD, rTmp3, rTmp3, rData, 0)
	transform(p)
	p.I(isa.OpADDI, rIdx, rIdx, 0, 1)
	p.J("xform")

	p.Label("reply")
	// Responses are plain ring messages: descriptor validation guards
	// where data *enters* the buffer (the request path and any enclave
	// bulk_send), while a reply is an application echo that need not
	// parse as descriptors — the echo server's checksum overwrites the
	// tag word. Full ring-caller discipline: retry ErrRetry and
	// ErrInvalidState (response ring full), advance past partial
	// transfers, die on anything else. rTmp2 = cursor, rTmp3 = left.
	p.I(isa.OpADDI, rTmp2, rData, 0, dRingSend)
	p.I(isa.OpADD, rTmp3, rTmp1, isa.RegZero, 0)
	p.Label("send")
	p.Branch(isa.OpBEQ, rTmp3, isa.RegZero, "serve")
	p.I(isa.OpADD, isa.RegA0, rShared, isa.RegZero, 0)
	p.I(isa.OpADD, isa.RegA1, rTmp2, isa.RegZero, 0)
	p.I(isa.OpADD, isa.RegA2, rTmp3, isa.RegZero, 0)
	ecall(p, api.CallRingSend)
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "sent")
	p.Li(rTmp4, int32(api.ErrRetry))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "send")
	p.Li(rTmp4, int32(api.ErrInvalidState))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "send")
	p.J("die")
	p.Label("sent")
	p.I(isa.OpSLLI, rTmp4, isa.RegA1, 0, 6) // sent × RingMsgSize
	p.I(isa.OpADD, rTmp2, rTmp2, rTmp4, 0)
	p.I(isa.OpSUB, rTmp3, rTmp3, isa.RegA1, 0)
	p.J("send")

	p.Label("die")
	p.Li(isa.RegA0, WorkerExitStatus)
	exitCall(p)
	return p
}

// BulkEchoServer answers each descriptor message with word 0 replaced
// by a checksum over the described buffer spans — one 64-bit load per
// page (the first word of each page-strided step), so the enclave
// provably dereferenced its mapping without the serve cost scaling per
// byte — and words 1..7 echoed verbatim (so the reply still carries
// the descriptor list the host sent).
func BulkEchoServer(l Layout) *asm.Program {
	const payload = dRingRecv + api.RingStampSize
	return bulkServer(l, func(p *asm.Program) {
		p.I(isa.OpLD, isa.RegA3, rData, 0, dBulkVA)   // bulk window base
		p.Li(isa.RegA4, 0)                            // checksum
		p.I(isa.OpLD, isa.RegA5, rTmp2, 0, payload+8) // ndesc
		p.Li(isa.RegA6, 0)                            // desc index
		p.Label("edesc")
		p.Branch(isa.OpBEQ, isa.RegA6, isa.RegA5, "edone")
		p.I(isa.OpSLLI, rTmp4, isa.RegA6, 0, 4) // 16·i
		p.I(isa.OpADD, rTmp4, rTmp4, rTmp2, 0)
		p.I(isa.OpLD, rTmp5, rTmp4, 0, payload+16) // offset
		p.I(isa.OpLD, rTmp6, rTmp4, 0, payload+24) // length
		p.I(isa.OpADD, rTmp5, rTmp5, isa.RegA3, 0) // cursor = base+off
		p.I(isa.OpADD, rTmp6, rTmp6, rTmp5, 0)     // end = cursor+len
		p.Label("epage")
		p.Branch(isa.OpBLTU, rTmp5, rTmp6, "ebody")
		p.J("enext")
		p.Label("ebody")
		p.I(isa.OpLD, rTmp4, rTmp5, 0, 0)
		p.I(isa.OpADD, isa.RegA4, isa.RegA4, rTmp4, 0)
		p.I(isa.OpADD, rTmp5, rTmp5, rStride, 0)
		p.J("epage")
		p.Label("enext")
		p.I(isa.OpADDI, isa.RegA6, isa.RegA6, 0, 1)
		p.J("edesc")
		p.Label("edone")
		p.I(isa.OpSD, 0, rTmp3, isa.RegA4, dRingSend)
		for w := 1; w < 8; w++ {
			p.I(isa.OpLD, rTmp4, rTmp2, 0, int32(payload+8*w))
			p.I(isa.OpSD, 0, rTmp3, rTmp4, int32(dRingSend+8*w))
		}
	})
}

// BulkEchoExpected computes the echo server's response for a
// descriptor message against the buffer contents buf — the Go-side
// replay the harness checks results against. Descriptor offsets must
// be 8-byte aligned (unaligned enclave loads are out of contract).
func BulkEchoExpected(payload, buf []byte) []byte {
	out := make([]byte, api.RingMsgSize)
	copy(out, payload)
	var acc uint64
	for _, d := range decodeBulkDescs(payload) {
		for p := d[0]; p < d[0]+d[1]; p += mem.PageSize {
			acc += binary.LittleEndian.Uint64(buf[p:])
		}
	}
	binary.LittleEndian.PutUint64(out, acc)
	return out
}

// decodeBulkDescs parses a delivered descriptor payload back into
// (offset, length) pairs (api.EncodeBulkDescs's layout), with no
// validation beyond the tag and count shape — the monitor already
// validated a delivered message at send time. Returns nil if the
// payload is not a descriptor message.
func decodeBulkDescs(payload []byte) [][2]uint64 {
	if len(payload) < api.RingMsgSize || binary.LittleEndian.Uint64(payload) != api.BulkTag {
		return nil
	}
	n := binary.LittleEndian.Uint64(payload[8:])
	if n == 0 || n > api.BulkMaxDescs {
		return nil
	}
	out := make([][2]uint64, n)
	for i := range out {
		out[i][0] = binary.LittleEndian.Uint64(payload[16+16*i:])
		out[i][1] = binary.LittleEndian.Uint64(payload[24+16*i:])
	}
	return out
}

// BulkKVServer is the stateful bulk worker: requests carry exactly one
// descriptor (offset, length ≤ 4096, length a multiple of 8) plus an
// opcode at payload byte 32 and a key at byte 40. put copies the
// described buffer span into the key's private slot page; any other
// opcode (conventionally RingOpGet) copies the slot back out into the
// described span. The response echoes the request payload verbatim —
// the data itself travels through the buffer, which is the point.
// Values live in private enclave pages, so clones diverge through COW
// exactly like RingKVServer's word-sized store.
func BulkKVServer(l Layout) *asm.Program {
	const payload = dRingRecv + api.RingStampSize
	slots := BulkKVSlotsVA(l)
	return bulkServer(l, func(p *asm.Program) {
		p.I(isa.OpLD, isa.RegA3, rData, 0, dBulkVA)    // bulk window base
		p.I(isa.OpLD, rTmp5, rTmp2, 0, payload+16)     // offset
		p.I(isa.OpLD, rTmp6, rTmp2, 0, payload+24)     // length
		p.I(isa.OpLD, isa.RegA4, rTmp2, 0, payload+32) // op
		p.I(isa.OpLD, isa.RegA5, rTmp2, 0, payload+40) // key
		p.I(isa.OpADD, rTmp5, rTmp5, isa.RegA3, 0)     // buffer span base
		p.I(isa.OpANDI, isa.RegA6, isa.RegA5, 0, BulkKVSlots-1)
		p.I(isa.OpSLLI, isa.RegA6, isa.RegA6, 0, 12)
		p.Li64(rTmp4, slots)
		p.I(isa.OpADD, isa.RegA6, isa.RegA6, rTmp4, 0) // slot page base
		p.Li(rTmp4, RingOpPut)
		p.Branch(isa.OpBNE, isa.RegA4, rTmp4, "kget")
		p.Li(rTmp4, 0) // put: buffer span → slot
		p.Label("kput")
		p.Branch(isa.OpBLTU, rTmp4, rTmp6, "kputb")
		p.J("kout")
		p.Label("kputb")
		p.I(isa.OpADD, isa.RegA3, rTmp5, rTmp4, 0)
		p.I(isa.OpLD, isa.RegA3, isa.RegA3, 0, 0)
		p.I(isa.OpADD, isa.RegA5, isa.RegA6, rTmp4, 0)
		p.I(isa.OpSD, 0, isa.RegA5, isa.RegA3, 0)
		p.I(isa.OpADDI, rTmp4, rTmp4, 0, 8)
		p.J("kput")
		p.Label("kget")
		p.Li(rTmp4, 0) // get: slot → buffer span
		p.Label("kgetl")
		p.Branch(isa.OpBLTU, rTmp4, rTmp6, "kgetb")
		p.J("kout")
		p.Label("kgetb")
		p.I(isa.OpADD, isa.RegA3, isa.RegA6, rTmp4, 0)
		p.I(isa.OpLD, isa.RegA3, isa.RegA3, 0, 0)
		p.I(isa.OpADD, isa.RegA5, rTmp5, rTmp4, 0)
		p.I(isa.OpSD, 0, isa.RegA5, isa.RegA3, 0)
		p.I(isa.OpADDI, rTmp4, rTmp4, 0, 8)
		p.J("kgetl")
		p.Label("kout")
		for w := 0; w < 8; w++ {
			p.I(isa.OpLD, rTmp4, rTmp2, 0, int32(payload+8*w))
			p.I(isa.OpSD, 0, rTmp3, rTmp4, int32(dRingSend+8*w))
		}
	})
}

// BulkKVRequest builds a bulk KV descriptor message: one descriptor
// (off, ln) naming the value's span in the shared buffer, the opcode
// at byte 32 and the key at byte 40. ln must be a multiple of 8, at
// most a page.
func BulkKVRequest(op, key, off, ln uint64) []byte {
	msg := api.EncodeBulkDescs([2]uint64{off, ln})
	binary.LittleEndian.PutUint64(msg[32:], op)
	binary.LittleEndian.PutUint64(msg[40:], key)
	return msg[:]
}

// BulkSpec wraps a bulk-serving program in an enclave spec: the
// standard layout plus the KV slot pages and a shared window at
// l.SharedVA, which forces the page-table plan to allocate the 2 MiB
// leaf the bulk window VAs live in (bulk_map allocates no tables).
func BulkSpec(l Layout, prog *asm.Program, regions []int, sharedPA uint64) (*os.EnclaveSpec, error) {
	spec, err := Spec(l, prog, nil, regions,
		[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < BulkKVSlots; i++ {
		spec.Pages = append(spec.Pages, os.EnclavePage{
			VA: BulkKVSlotsVA(l) + i*mem.PageSize, Perms: pt.R | pt.W,
		})
	}
	return spec, nil
}
