package sm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sanctorum/internal/sm/api"
)

// ringFixture sets up a fixture with an OS→OS loopback ring of the
// given capacity, plus an OS staging page for payload traffic.
func ringFixture(t testing.TB, capacity int) (*fixture, uint64, uint64) {
	t.Helper()
	f := newFixture(t)
	ringID := f.metaPage(12)
	if st := f.call(api.CallRingCreate, ringID, api.DomainOS, api.DomainOS, uint64(capacity)); st != api.OK {
		t.Fatalf("ring_create: %v", st)
	}
	stagePA := f.m.DRAM.Base(1) // OS-owned
	return f, ringID, stagePA
}

// stageMsgs writes count distinct payloads at stagePA and returns them.
func stageMsgs(t testing.TB, f *fixture, stagePA uint64, count int, tag byte) [][]byte {
	t.Helper()
	var out [][]byte
	buf := make([]byte, count*api.RingMsgSize)
	for i := 0; i < count; i++ {
		msg := buf[i*api.RingMsgSize : (i+1)*api.RingMsgSize]
		msg[0] = tag
		msg[1] = byte(i)
		msg[api.RingMsgSize-1] = ^byte(i)
		out = append(out, msg)
	}
	if err := f.m.Mem.WriteBytes(stagePA, buf); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRingSendRecvRoundTrip(t *testing.T) {
	f, ringID, stagePA := ringFixture(t, 8)
	msgs := stageMsgs(t, f, stagePA, 3, 0xA1)
	resp := f.mon.Dispatch(api.OSRequest(api.CallRingSend, ringID, stagePA, 3))
	if resp.Status != api.OK || resp.Values[0] != 3 {
		t.Fatalf("send: %v, n=%d", resp.Status, resp.Values[0])
	}
	outPA := stagePA + 0x1000
	resp = f.mon.Dispatch(api.OSRequest(api.CallRingRecv, ringID, outPA, 8))
	if resp.Status != api.OK || resp.Values[0] != 3 {
		t.Fatalf("recv: %v, n=%d", resp.Status, resp.Values[0])
	}
	records := make([]byte, 3*api.RingRecordSize)
	if err := f.m.Mem.ReadBytes(outPA, records); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := records[i*api.RingRecordSize : (i+1)*api.RingRecordSize]
		// OS sender stamp: zero measurement, DomainOS id.
		if !bytes.Equal(rec[:32], make([]byte, 32)) {
			t.Errorf("record %d: non-zero measurement for an OS send", i)
		}
		if sender := binary.LittleEndian.Uint64(rec[32:40]); sender != api.DomainOS {
			t.Errorf("record %d: sender %#x, want DomainOS", i, sender)
		}
		if !bytes.Equal(rec[api.RingStampSize:], msgs[i]) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
	// Drained: the next recv refuses.
	if st := f.call(api.CallRingRecv, ringID, outPA, 1); st != api.ErrInvalidState {
		t.Fatalf("recv on empty ring: %v, want ErrInvalidState", st)
	}
}

// TestRingFullAndPartialSend exercises the capacity edge: a full ring
// refuses a send outright, a nearly full one takes what fits, and
// FIFO order survives wraparound.
func TestRingFullAndPartialSend(t *testing.T) {
	f, ringID, stagePA := ringFixture(t, 4)
	stageMsgs(t, f, stagePA, 4, 0xB0)
	outPA := stagePA + 0x1000

	// Fill via two sends, then overflow.
	if resp := f.mon.Dispatch(api.OSRequest(api.CallRingSend, ringID, stagePA, 3)); resp.Values[0] != 3 {
		t.Fatalf("fill send: %+v", resp)
	}
	resp := f.mon.Dispatch(api.OSRequest(api.CallRingSend, ringID, stagePA, 3))
	if resp.Status != api.OK || resp.Values[0] != 1 {
		t.Fatalf("partial send into 1 free slot: %v n=%d, want OK n=1", resp.Status, resp.Values[0])
	}
	before := snapshot(f.mon)
	if st := f.call(api.CallRingSend, ringID, stagePA, 1); st != api.ErrInvalidState {
		t.Fatalf("send to full ring: %v, want ErrInvalidState", st)
	}
	if !snapshot(f.mon).equal(before) {
		t.Fatal("a refused send mutated monitor state")
	}
	// Drain two, send two (wraps), then drain everything in order.
	if resp := f.mon.Dispatch(api.OSRequest(api.CallRingRecv, ringID, outPA, 2)); resp.Values[0] != 2 {
		t.Fatalf("drain 2: %+v", resp)
	}
	stageMsgs(t, f, stagePA, 2, 0xC0)
	if resp := f.mon.Dispatch(api.OSRequest(api.CallRingSend, ringID, stagePA, 2)); resp.Values[0] != 2 {
		t.Fatalf("wrap send: %+v", resp)
	}
	var got []byte
	for {
		resp := f.mon.Dispatch(api.OSRequest(api.CallRingRecv, ringID, outPA, 3))
		if resp.Status == api.ErrInvalidState {
			break
		}
		if resp.Status != api.OK {
			t.Fatalf("drain: %v", resp.Status)
		}
		n := int(resp.Values[0])
		records := make([]byte, n*api.RingRecordSize)
		if err := f.m.Mem.ReadBytes(outPA, records); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got = append(got, records[i*api.RingRecordSize+api.RingStampSize],
				records[i*api.RingRecordSize+api.RingStampSize+1])
		}
	}
	want := []byte{0xB0, 2, 0xB0, 0, 0xC0, 0, 0xC0, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("FIFO across wraparound: %x, want %x", got, want)
	}
}

// TestRingBatchSequentialEquivalence sends N messages one per call and
// N messages in one batched call, and requires the recv side to
// observe identical records either way.
func TestRingBatchSequentialEquivalence(t *testing.T) {
	const n = 8
	run := func(batched bool) []byte {
		f, ringID, stagePA := ringFixture(t, 16)
		stageMsgs(t, f, stagePA, n, 0xD0)
		if batched {
			resp := f.mon.Dispatch(api.OSRequest(api.CallRingSend, ringID, stagePA, n))
			if resp.Status != api.OK || resp.Values[0] != n {
				t.Fatalf("batched send: %+v", resp)
			}
		} else {
			for i := 0; i < n; i++ {
				resp := f.mon.Dispatch(api.OSRequest(api.CallRingSend, ringID,
					stagePA+uint64(i)*api.RingMsgSize, 1))
				if resp.Status != api.OK || resp.Values[0] != 1 {
					t.Fatalf("sequential send %d: %+v", i, resp)
				}
			}
		}
		outPA := stagePA + 0x1000
		var records []byte
		for {
			resp := f.mon.Dispatch(api.OSRequest(api.CallRingRecv, ringID, outPA, 3))
			if resp.Status == api.ErrInvalidState {
				break
			}
			if resp.Status != api.OK {
				t.Fatalf("recv: %v", resp.Status)
			}
			chunk := make([]byte, int(resp.Values[0])*api.RingRecordSize)
			if err := f.m.Mem.ReadBytes(outPA, chunk); err != nil {
				t.Fatal(err)
			}
			records = append(records, chunk...)
		}
		return records
	}
	seq, bat := run(false), run(true)
	if !bytes.Equal(seq, bat) {
		t.Fatal("batched send produced different records from sequential sends")
	}
}

// TestRingAuthorization covers the identity checks: only the producer
// sends and wakes, only the consumer receives, and argument abuse is
// refused without touching state.
func TestRingAuthorization(t *testing.T) {
	f := newFixture(t)
	// A sealed enclave to use as a non-OS endpoint.
	eid := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eid, 1)
	if st := f.InitEnclave(eid); st != api.OK {
		t.Fatalf("init: %v", st)
	}
	ringID := f.metaPage(12)
	// Ring produced by the enclave, consumed by the OS.
	if st := f.call(api.CallRingCreate, ringID, eid, api.DomainOS, 4); st != api.OK {
		t.Fatalf("ring_create: %v", st)
	}
	stagePA := f.m.DRAM.Base(1)
	before := snapshot(f.mon)
	cases := []struct {
		name string
		req  api.Request
		want api.Error
	}{
		{"OS send on enclave-producer ring", api.OSRequest(api.CallRingSend, ringID, stagePA, 1), api.ErrUnauthorized},
		{"OS wake on enclave-producer ring", api.OSRequest(api.CallRingWake, ringID), api.ErrUnauthorized},
		{"send to unknown ring", api.OSRequest(api.CallRingSend, f.metaPage(14), stagePA, 1), api.ErrInvalidValue},
		{"send with zero count", api.OSRequest(api.CallRingSend, ringID, stagePA, 0), api.ErrInvalidValue},
		{"send past the batch bound", api.OSRequest(api.CallRingSend, ringID, stagePA, api.RingMaxBatch+1), api.ErrInvalidValue},
		{"recv into non-OS memory", api.OSRequest(api.CallRingRecv, ringID, f.meta, 1), api.ErrInvalidState},
		{"create with duplicate id", api.OSRequest(api.CallRingCreate, ringID, 0, 0, 4), api.ErrInvalidValue},
		{"create with enclave-id ring name", api.OSRequest(api.CallRingCreate, eid, 0, 0, 4), api.ErrInvalidValue},
		{"create naming unknown producer", api.OSRequest(api.CallRingCreate, f.metaPage(14), 0xBAD, 0, 4), api.ErrInvalidValue},
		{"create with zero capacity", api.OSRequest(api.CallRingCreate, f.metaPage(14), 0, 0, 0), api.ErrInvalidValue},
		{"create past max capacity", api.OSRequest(api.CallRingCreate, f.metaPage(14), 0, 0, api.RingMaxCapacity+1), api.ErrInvalidValue},
		{"destroy unknown ring", api.OSRequest(api.CallRingDestroy, f.metaPage(14)), api.ErrInvalidValue},
	}
	for _, c := range cases {
		if resp := f.mon.Dispatch(c.req); resp.Status != c.want {
			t.Errorf("%s: %v, want %v", c.name, resp.Status, c.want)
		}
	}
	if !snapshot(f.mon).equal(before) {
		t.Fatal("a refused ring call mutated monitor state")
	}
	// OS recv on its own consumer side of an empty ring: empty, not
	// unauthorized.
	if st := f.call(api.CallRingRecv, ringID, stagePA, 1); st != api.ErrInvalidState {
		t.Fatalf("recv on empty consumer ring: %v, want ErrInvalidState", st)
	}
	// Destroy, then every call on the freed id fails.
	if st := f.call(api.CallRingDestroy, ringID); st != api.OK {
		t.Fatalf("destroy: %v", st)
	}
	if st := f.call(api.CallRingDestroy, ringID); st != api.ErrInvalidValue {
		t.Fatalf("double destroy: %v, want ErrInvalidValue", st)
	}
	if st := f.call(api.CallRingRecv, ringID, stagePA, 1); st != api.ErrInvalidValue {
		t.Fatalf("recv on destroyed ring: %v, want ErrInvalidValue", st)
	}
}

// TestRingBlocksEndpointDeletion pins the eid-reuse guard: an enclave
// that is a live ring endpoint cannot be deleted (a recreated enclave
// at the freed metadata page would inherit the rings and their queued
// messages); destroying the rings unblocks the deletion.
func TestRingBlocksEndpointDeletion(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eid, 1)
	if st := f.InitEnclave(eid); st != api.OK {
		t.Fatalf("init: %v", st)
	}
	ringID := f.metaPage(12)
	if st := f.call(api.CallRingCreate, ringID, api.DomainOS, eid, 4); st != api.OK {
		t.Fatalf("ring_create: %v", st)
	}
	if st := f.DeleteEnclave(eid); st != api.ErrInvalidState {
		t.Fatalf("delete of a ring endpoint: %v, want ErrInvalidState", st)
	}
	if st := f.call(api.CallRingDestroy, ringID); st != api.OK {
		t.Fatalf("destroy: %v", st)
	}
	if st := f.DeleteEnclave(eid); st != api.OK {
		t.Fatalf("delete after ring destruction: %v", st)
	}
}

// TestRingContention verifies the §V-A transaction discipline: a ring
// lock held by "another hart" fails send, recv, wake and destroy with
// ErrRetry, state untouched.
func TestRingContention(t *testing.T) {
	f, ringID, stagePA := ringFixture(t, 4)
	stageMsgs(t, f, stagePA, 1, 0xE0)
	r, _ := get[*Ring](f.mon, ringID)
	r.mu.Lock() // the contending transaction
	defer r.mu.Unlock()
	before := snapshot(f.mon)
	for _, c := range []api.Call{api.CallRingSend, api.CallRingRecv, api.CallRingWake, api.CallRingDestroy} {
		if st := f.call(c, ringID, stagePA, 1); st != api.ErrRetry {
			t.Errorf("call %#x under contention: %v, want ErrRetry", uint64(c), st)
		}
	}
	if !snapshot(f.mon).equal(before) {
		t.Fatal("a contended ring call mutated monitor state")
	}
}

// TestRingWakeSink verifies wake delivery plumbing host-side: wakes
// with no waiter report 0 and reach no sink; destroy frees the ring id
// for reuse as a fresh monitor object.
func TestRingWakeSink(t *testing.T) {
	f, ringID, _ := ringFixture(t, 4)
	var woken []uint64
	f.mon.SetWakeSink(func(ring, eid, tid uint64) { woken = append(woken, ring) })
	resp := f.mon.Dispatch(api.OSRequest(api.CallRingWake, ringID))
	if resp.Status != api.OK || resp.Values[0] != 0 {
		t.Fatalf("wake with no waiter: %+v, want OK/0", resp)
	}
	if len(woken) != 0 {
		t.Fatalf("sink fired %d times with no waiter", len(woken))
	}
	if st := f.call(api.CallRingDestroy, ringID); st != api.OK {
		t.Fatalf("destroy: %v", st)
	}
	// The freed metadata page is a valid name for a new object.
	if st := f.call(api.CallRingCreate, ringID, api.DomainOS, api.DomainOS, 2); st != api.OK {
		t.Fatalf("recreate on freed id: %v", st)
	}
}
