package sm

import (
	"testing"

	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
)

// BenchmarkDispatch measures the cost the unified ABI adds to one
// monitor call: the same region_info request handed to the handler
// itself (regionInfo(req, nil), which still unpacks and narrows its
// argument) and routed through the full Dispatch path (call-table
// index, domain authorization). The difference is the dispatch
// overhead every call pays for having exactly one privilege boundary.
func BenchmarkDispatch(b *testing.B) {
	f := newFixture(b)
	b.Run("direct", func(b *testing.B) {
		req := api.OSRequest(api.CallRegionInfo, 3)
		for i := 0; i < b.N; i++ {
			if resp := f.mon.regionInfo(req, nil); resp.Status != api.OK {
				b.Fatal(resp.Status)
			}
		}
	})
	b.Run("dispatch", func(b *testing.B) {
		req := api.OSRequest(api.CallRegionInfo, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if resp := f.mon.Dispatch(req); resp.Status != api.OK {
				b.Fatal(resp.Status)
			}
		}
	})
}

// TestDispatchZeroAlloc pins the dispatch path's allocation behaviour:
// a steady-state monitor call must not allocate. The Request travels by
// value through the handler table precisely so it cannot escape; a
// regression here puts a GC allocation on every ABI call.
func TestDispatchZeroAlloc(t *testing.T) {
	f := newFixture(t)
	req := api.OSRequest(api.CallRegionInfo, 3)
	avg := testing.AllocsPerRun(1000, func() {
		if resp := f.mon.Dispatch(req); resp.Status != api.OK {
			t.Fatal(resp.Status)
		}
	})
	if avg != 0 {
		t.Fatalf("Dispatch allocates %.2f objects per call, want 0", avg)
	}
}

// buildReqs is the canonical enclave-build call sequence (create, one
// grant, three tables, nPages loads, one thread, init) as ABI requests.
func buildReqs(f *fixture, slot, region, nPages int) []api.Request {
	eid := f.metaPage(slot)
	src := f.m.DRAM.Base(1) // OS-owned source page
	reqs := []api.Request{
		api.OSRequest(api.CallCreateEnclave, eid, testEvBase, testEvMask),
		api.OSRequest(api.CallGrantRegion, uint64(region), eid),
		api.OSRequest(api.CallAllocPageTable, eid, 0, 2),
		api.OSRequest(api.CallAllocPageTable, eid, testEvBase, 1),
		api.OSRequest(api.CallAllocPageTable, eid, testEvBase, 0),
	}
	for p := 0; p < nPages; p++ {
		reqs = append(reqs, api.OSRequest(api.CallLoadPage, eid,
			testEvBase+uint64(p)*mem.PageSize, src, uint64(pt.R|pt.X)))
	}
	reqs = append(reqs,
		api.OSRequest(api.CallLoadThread, eid, f.metaPage(slot+1), testEvBase, testEvBase+0x800),
		api.OSRequest(api.CallInitEnclave, eid),
		api.OSRequest(api.CallEnclaveStatus, eid, 0),
	)
	return reqs
}

func teardownBuilt(b *testing.B, f *fixture, slot, region int) {
	b.Helper()
	if st := f.DeleteEnclave(f.metaPage(slot)); st != api.OK {
		b.Fatalf("delete: %v", st)
	}
	if st := f.DeleteThread(f.metaPage(slot + 1)); st != api.OK {
		b.Fatalf("delete thread: %v", st)
	}
	if st := f.CleanRegion(region); st != api.OK {
		b.Fatalf("clean: %v", st)
	}
	if st := f.GrantRegion(region, api.DomainOS); st != api.OK {
		b.Fatalf("grant back: %v", st)
	}
}

// BenchmarkDispatchBatch compares the hot multi-call sequence — an
// enclave build of create + tables + 12 load_page + init — submitted as
// individual Dispatch calls versus one DispatchBatch, which runs the
// same lone calls behind one entry and one contention cut.
func BenchmarkDispatchBatch(b *testing.B) {
	const nPages = 12
	run := func(b *testing.B, batched bool) {
		f := newFixture(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqs := buildReqs(f, 0, 10, nPages)
			if batched {
				for _, resp := range f.mon.DispatchBatch(reqs) {
					if resp.Status != api.OK {
						b.Fatal(resp.Status)
					}
				}
			} else {
				for _, req := range reqs {
					if resp := f.mon.Dispatch(req); resp.Status != api.OK {
						b.Fatal(resp.Status)
					}
				}
			}
			b.StopTimer()
			teardownBuilt(b, f, 0, 10)
			b.StartTimer()
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, false) })
	b.Run("batched", func(b *testing.B) { run(b, true) })
}
