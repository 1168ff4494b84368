package sm

// White-box edge tests for the bulk data plane (bulk.go, DESIGN.md
// §14), driven host-side through Dispatch over an OS↔OS loopback grant
// and ring — the same surface the gateway and the adversary battery
// use, with no enclaves in the way of the descriptor machinery.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sanctorum/internal/hw/mem"
	"sanctorum/internal/sm/api"
)

// bulkFixture sets up an OS↔OS ring plus an OS↔OS grant over a
// pages-page buffer in region 2, with a staging page in region 1.
func bulkFixture(t testing.TB, pages uint64) (f *fixture, ringID, grantID, bufPA, stagePA uint64) {
	t.Helper()
	f = newFixture(t)
	ringID = f.metaPage(12)
	if st := f.call(api.CallRingCreate, ringID, api.DomainOS, api.DomainOS, 8); st != api.OK {
		t.Fatalf("ring_create: %v", st)
	}
	grantID = f.metaPage(13)
	bufPA = f.m.DRAM.Base(2)
	if st := f.call(api.CallBulkGrant, grantID, bufPA, pages, api.DomainOS, api.DomainOS); st != api.OK {
		t.Fatalf("bulk_grant: %v", st)
	}
	checkInvariants(t, f, "after grant")
	stagePA = f.m.DRAM.Base(1)
	return f, ringID, grantID, bufPA, stagePA
}

// checkInvariants runs the invariant suite — grant pins, endpoint
// liveness and the in-flight law included — at one station of a test.
func checkInvariants(t testing.TB, f *fixture, when string) {
	t.Helper()
	if err := f.mon.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// stageSG writes a descriptor message at stagePA and returns it.
func stageSG(t testing.TB, f *fixture, stagePA uint64, descs ...[2]uint64) []byte {
	t.Helper()
	msg := api.EncodeBulkDescs(descs...)
	if err := f.m.Mem.WriteBytes(stagePA, msg[:]); err != nil {
		t.Fatal(err)
	}
	return msg[:]
}

// TestBulkDescBounds walks the descriptor-validation edges: zero
// length, offset+length wraparound, one byte past the grant, and the
// boundary-exact spans that must be accepted.
func TestBulkDescBounds(t *testing.T) {
	const pages = 4
	f, ringID, grantID, _, stagePA := bulkFixture(t, pages)
	size := uint64(pages * mem.PageSize)
	send := func(descs ...[2]uint64) api.Error {
		stageSG(t, f, stagePA, descs...)
		st := f.call(api.CallBulkSend, ringID, stagePA, 1, grantID)
		checkInvariants(t, f, "after send")
		return st
	}
	if st := send([2]uint64{0, 0}); st != api.ErrInvalidValue {
		t.Errorf("zero-length descriptor: %v, want ErrInvalidValue", st)
	}
	if st := send([2]uint64{^uint64(0) - 255, 512}); st != api.ErrInvalidValue {
		t.Errorf("wraparound descriptor: %v, want ErrInvalidValue", st)
	}
	if st := send([2]uint64{1, size}); st != api.ErrInvalidValue {
		t.Errorf("descriptor one past the grant: %v, want ErrInvalidValue", st)
	}
	// Boundary-exact spans: the whole buffer, and the last word alone.
	for _, d := range [][2]uint64{{0, size}, {size - 8, 8}} {
		if st := send(d); st != api.OK {
			t.Fatalf("boundary-exact descriptor %v: %v", d, st)
		}
		if st := f.call(api.CallBulkRecv, ringID, stagePA+0x1000, 8, grantID); st != api.OK {
			t.Fatalf("draining boundary send: %v", st)
		}
		checkInvariants(t, f, "after recv")
	}
	if st := f.call(api.CallBulkRevoke, grantID); st != api.OK {
		t.Fatalf("revoke: %v", st)
	}
	checkInvariants(t, f, "after revoke")
	if refs := f.m.Mem.TotalRefs(); refs != 0 {
		t.Fatalf("refs after revoke = %d", refs)
	}
}

// TestBulkMaxDescriptors round-trips a full three-descriptor message
// and verifies the payload survives byte-identical — then forges a
// fourth descriptor into the count word and must be refused.
func TestBulkMaxDescriptors(t *testing.T) {
	f, ringID, grantID, _, stagePA := bulkFixture(t, 4)
	msg := stageSG(t, f, stagePA,
		[2]uint64{0, 4096}, [2]uint64{8192, 128}, [2]uint64{4096, 64})
	if st := f.call(api.CallBulkSend, ringID, stagePA, 1, grantID); st != api.OK {
		t.Fatalf("max-descriptor send: %v", st)
	}
	checkInvariants(t, f, "after send")
	// A queued descriptor keeps the grant alive.
	if st := f.call(api.CallBulkRevoke, grantID); st != api.ErrInvalidState {
		t.Fatalf("revoke with a descriptor in flight: %v, want ErrInvalidState", st)
	}
	checkInvariants(t, f, "after refused revoke")
	outPA := stagePA + 0x1000
	resp := f.mon.Dispatch(api.OSRequest(api.CallBulkRecv, ringID, outPA, 8, grantID))
	if resp.Status != api.OK || resp.Values[0] != 1 {
		t.Fatalf("recv: %v, n=%d", resp.Status, resp.Values[0])
	}
	checkInvariants(t, f, "after recv")
	rec := make([]byte, api.RingRecordSize)
	if err := f.m.Mem.ReadBytes(outPA, rec); err != nil {
		t.Fatal(err)
	}
	if sender := binary.LittleEndian.Uint64(rec[32:40]); sender != api.DomainOS {
		t.Errorf("sender stamp %#x, want DomainOS", sender)
	}
	if !bytes.Equal(rec[api.RingStampSize:], msg) {
		t.Errorf("descriptor payload did not survive the ring")
	}
	over := api.EncodeBulkDescs([2]uint64{0, 64})
	binary.LittleEndian.PutUint64(over[8:], api.BulkMaxDescs+1)
	if err := f.m.Mem.WriteBytes(stagePA, over[:]); err != nil {
		t.Fatal(err)
	}
	if st := f.call(api.CallBulkSend, ringID, stagePA, 1, grantID); st != api.ErrInvalidValue {
		t.Errorf("forged descriptor count: %v, want ErrInvalidValue", st)
	}
	if st := f.call(api.CallBulkRevoke, grantID); st != api.OK {
		t.Fatalf("revoke: %v", st)
	}
	checkInvariants(t, f, "after revoke")
}

// TestBulkRevokeRacesInFlightSend hammers the dead/inflight protocol
// under the race detector: a producer streams descriptor messages, a
// consumer drains them, and a revoker spins until it wins. The
// invariant is that the revoke only ever succeeds with nothing in
// flight — so once it lands, the plane is fully drained, every later
// use of the id is refused, and no page pin survives.
func TestBulkRevokeRacesInFlightSend(t *testing.T) {
	f, ringID, grantID, _, stagePA := bulkFixture(t, 2)
	outPA := stagePA + 0x1000
	msg := api.EncodeBulkDescs([2]uint64{0, 4096})
	if err := f.m.Mem.WriteBytes(stagePA, msg[:]); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var sent, received atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		for i := 0; i < 200 && !stop.Load(); {
			switch st := f.call(api.CallBulkSend, ringID, stagePA, 1, grantID); st {
			case api.OK:
				sent.Add(1)
				i++
			case api.ErrRetry, api.ErrInvalidState: // contention, ring full
				runtime.Gosched()
			case api.ErrInvalidValue: // grant revoked under us
				return
			default:
				panic(st)
			}
		}
	}()
	go func() { // consumer
		defer wg.Done()
		for !stop.Load() {
			resp := f.mon.Dispatch(api.OSRequest(api.CallBulkRecv, ringID, outPA, 8, grantID))
			switch resp.Status {
			case api.OK:
				received.Add(int64(resp.Values[0]))
			case api.ErrRetry, api.ErrInvalidState: // contention, ring empty
				runtime.Gosched()
			case api.ErrInvalidValue: // grant revoked under us
				if stop.Load() {
					return
				}
				runtime.Gosched()
			default:
				panic(resp.Status)
			}
		}
	}()
	var refused int
	for {
		st := f.call(api.CallBulkRevoke, grantID)
		if st == api.OK {
			break
		}
		if st == api.ErrInvalidState {
			refused++
		} else if st != api.ErrRetry {
			t.Errorf("revoke: %v", st)
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("sent=%d received=%d revoke refusals=%d", sent.Load(), received.Load(), refused)
	if sent.Load() != received.Load() {
		t.Errorf("revoke won with %d descriptors unaccounted for",
			sent.Load()-received.Load())
	}
	if st := f.call(api.CallBulkSend, ringID, stagePA, 1, grantID); st != api.ErrInvalidValue {
		t.Errorf("send on revoked grant: %v, want ErrInvalidValue", st)
	}
	if st := f.call(api.CallBulkRevoke, grantID); st != api.ErrInvalidValue {
		t.Errorf("double revoke: %v, want ErrInvalidValue", st)
	}
	if refs := f.m.Mem.TotalRefs(); refs != 0 {
		t.Errorf("refs after revoke = %d", refs)
	}
	checkInvariants(t, f, "after the race")
}
