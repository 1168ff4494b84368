package os

import (
	"bytes"
	"errors"
	"maps"
	"testing"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/platform/baseline"
	"sanctorum/internal/platform/keystone"
	"sanctorum/internal/platform/sanctum"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
	"sanctorum/internal/smcall"
)

// newSystem boots machine + monitor + OS with region 0 as the kernel
// region and the top regions for SM image and metadata, mirroring the
// facade's layout. The OS talks to the monitor exclusively through its
// smcall client (o.SM), so these tests exercise the unified ABI.
func newSystem(t *testing.T) (*machine.Machine, *sm.Monitor, *OS) {
	return newSystemOn(t, machine.IsolationNone)
}

// newSystemOn is newSystem on the given platform kind.
func newSystemOn(t *testing.T, kind machine.IsolationKind) (*machine.Machine, *sm.Monitor, *OS) {
	t.Helper()
	cfg := machine.DefaultConfig(kind)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mfr := boot.NewManufacturer("acme", []byte("seed"))
	dev := mfr.Provision("dev", []byte("root-secret"))
	id, err := dev.Boot([]byte("os test image"))
	if err != nil {
		t.Fatal(err)
	}
	smRegion := cfg.DRAM.RegionCount - 1
	metaRegion := cfg.DRAM.RegionCount - 2
	var plat sm.Platform = baseline.New()
	switch kind {
	case machine.IsolationSanctum:
		plat = sanctum.New()
	case machine.IsolationKeystone:
		plat = keystone.New(cfg.DRAM)
	}
	mon, err := sm.New(sm.Config{
		Machine:   m,
		Platform:  plat,
		Identity:  id,
		SMRegions: []int{smRegion},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(m, mon, 0, metaRegion)
	if err != nil {
		t.Fatal(err)
	}
	return m, mon, o
}

func TestOwnedAccessRejectsForeignRegions(t *testing.T) {
	m, _, o := newSystem(t)
	_ = m

	// The SM region is not ours.
	smBase := o.M.DRAM.Base(o.M.DRAM.RegionCount - 1)
	if err := o.WriteOwned(smBase, []byte{1}); err == nil {
		t.Fatal("write into the SM region succeeded")
	}
	if _, err := o.ReadOwned(smBase, 8); err == nil {
		t.Fatal("read from the SM region succeeded")
	}
	// A blocked region stops being ours mid-lifecycle.
	r := 5
	base := o.M.DRAM.Base(r)
	if err := o.WriteOwned(base, []byte{1, 2, 3}); err != nil {
		t.Fatalf("write to own region: %v", err)
	}
	if err := o.SM.BlockRegion(r); err != nil {
		t.Fatalf("block: %v", err)
	}
	if err := o.WriteOwned(base, []byte{1}); err == nil {
		t.Fatal("write into a blocked region succeeded")
	}
	if _, err := o.ReadOwned(base, 1); err == nil {
		t.Fatal("read from a blocked region succeeded")
	}
}

// TestOwnedAccessOverflow is the regression test for the unsigned
// end-of-range wrap: pa near 2^64 must be rejected outright, not wrap
// into a small (and OS-owned) address range.
func TestOwnedAccessOverflow(t *testing.T) {
	_, _, o := newSystem(t)
	huge := ^uint64(0) - 3 // pa + len - 1 wraps for len ≥ 5
	if err := o.WriteOwned(huge, make([]byte, 16)); err == nil {
		t.Fatal("wrapping write passed the ownership check")
	}
	if _, err := o.ReadOwned(huge, 16); err == nil {
		t.Fatal("wrapping read passed the ownership check")
	}
	if _, err := o.ReadOwned(0, -1); err == nil {
		t.Fatal("negative-length read succeeded")
	}
}

func TestMetaPageReuse(t *testing.T) {
	_, _, o := newSystem(t)
	// Exhaust two pages, release one, and require the allocator to
	// hand the released page back before advancing the bump pointer.
	p1, err := o.AllocMetaPage()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := o.AllocMetaPage()
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("allocator returned %#x twice", p1)
	}
	// Round-trip through the monitor: create and delete an enclave at
	// p1, then reuse the page.
	if err := o.SM.CreateEnclave(p1, 0x4000000000, ^uint64(1<<21-1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := o.SM.DeleteEnclave(p1); err != nil {
		t.Fatalf("delete: %v", err)
	}
	o.ReleaseMetaPage(p1)
	p3, err := o.AllocMetaPage()
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatalf("allocator ignored the released page: got %#x want %#x", p3, p1)
	}
	if err := o.SM.CreateEnclave(p3, 0x4000000000, ^uint64(1<<21-1)); err != nil {
		t.Fatalf("re-create on reused metadata page: %v", err)
	}
}

// TestABIVersionAndFieldsThroughClient probes the version call and a
// byte-returning field through the register-convention ABI (the bytes
// travel via OS-owned staging memory).
func TestABIVersionAndFieldsThroughClient(t *testing.T) {
	_, mon, o := newSystem(t)
	v, err := o.ABIVersion()
	if err != nil {
		t.Fatalf("abi version: %v", err)
	}
	if v != api.Version || v>>16 != api.VersionMajor {
		t.Fatalf("version %#x, want %#x", v, uint64(api.Version))
	}
	meas, err := o.GetField(api.FieldSMMeasurement)
	if err != nil {
		t.Fatalf("get_field: %v", err)
	}
	if want := mon.Identity().Measurement; !bytes.Equal(meas, want[:]) {
		t.Fatalf("measurement through ABI = %x, want %x", meas, want)
	}
	// A too-small output bound must be refused, not truncated.
	stage, err := o.StagePage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SM.GetField(api.FieldSMMeasurement, stage, 16); !errors.Is(err, api.ErrInvalidValue) {
		t.Fatalf("short get_field bound: %v", err)
	}
	// Enclave-only fields stay refused for the OS domain.
	if _, err := o.GetField(api.FieldEnclaveMeasurement); !errors.Is(err, api.ErrUnauthorized) {
		t.Fatalf("enclave field for OS: %v", err)
	}
}

// TestBuildEnclaveMeasurementMatchesReplay drives the whole loader and
// checks the monitor's measurement against the Go-side replay — the
// verifier computation of §VI-A.
func TestBuildEnclaveMeasurementMatchesReplay(t *testing.T) {
	_, _, o := newSystem(t)
	evBase := uint64(0x4000000000)
	evMask := ^uint64(1<<21 - 1)
	code := bytes.Repeat([]byte{0x13, 0, 0, 0, 0, 0, 0, 0}, 16) // NOPs
	spec := &EnclaveSpec{
		EvBase:  evBase,
		EvMask:  evMask,
		Regions: []int{3},
		Pages: []EnclavePage{
			{VA: evBase, Perms: pt.R | pt.X, Data: code},
			{VA: evBase + 0x1000, Perms: pt.R | pt.W, Data: []byte("data")},
		},
		Threads: []ThreadSpec{{EntryVA: evBase, StackVA: evBase + 0x2000}},
	}
	built, err := o.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if built.Measurement != ExpectedMeasurement(spec) {
		t.Fatal("monitor measurement does not match the replayed transcript")
	}
	if len(built.TIDs) != 1 {
		t.Fatalf("built %d threads", len(built.TIDs))
	}
}

// TestLoaderRejectsOversizedPage covers the loader's own validation.
func TestLoaderRejectsOversizedPage(t *testing.T) {
	_, _, o := newSystem(t)
	spec := &EnclaveSpec{
		EvBase:  0x4000000000,
		EvMask:  ^uint64(1<<21 - 1),
		Regions: []int{3},
		Pages: []EnclavePage{
			{VA: 0x4000000000, Perms: pt.R | pt.X, Data: make([]byte, mem.PageSize+1)},
		},
	}
	if _, err := o.BuildEnclave(spec); err == nil {
		t.Fatal("oversized page accepted")
	}
}

// callLog is a monitor call surface that forwards every call and logs
// it, lone or batched, in issue order with its status.
type callLog struct {
	inner smcall.Dispatcher
	calls []api.Call
	stats []api.Error
}

func (l *callLog) Dispatch(req api.Request) api.Response {
	resp := l.inner.Dispatch(req)
	l.calls = append(l.calls, req.Call)
	l.stats = append(l.stats, resp.Status)
	return resp
}

func (l *callLog) DispatchBatch(reqs []api.Request) []api.Response {
	resps := l.inner.DispatchBatch(reqs)
	for i, resp := range resps {
		l.calls = append(l.calls, reqs[i].Call)
		l.stats = append(l.stats, resp.Status)
	}
	return resps
}

// names lists the logged calls from index from on by name.
func (l *callLog) names(from int) []string {
	table := sm.CallNames()
	var out []string
	for _, c := range l.calls[from:] {
		out = append(out, table[c])
	}
	return out
}

// metaInUse is the set of metadata pages the OS allocator has handed
// out and not taken back; a page released twice fails the test.
func metaInUse(t *testing.T, o *OS) map[uint64]bool {
	t.Helper()
	used := map[uint64]bool{}
	for p := o.M.DRAM.Base(o.metaRegion); p < o.nextMetaPage; p += mem.PageSize {
		used[p] = true
	}
	for _, p := range o.metaFree {
		if !used[p] {
			t.Fatalf("metadata page %#x released twice or never handed out", p)
		}
		delete(used, p)
	}
	return used
}

// TestBuildStopsAtFirstRefusal: a build whose map_shared names a page
// outside OS-owned memory is refused there, and the loader issues
// nothing past the refusal — no load_thread, no init_enclave, no
// enclave_status — before it unwinds. The unwind leaves the monitor's
// state exactly as it was and every metadata page back in the OS
// allocator.
func TestBuildStopsAtFirstRefusal(t *testing.T) {
	for _, kind := range []machine.IsolationKind{
		machine.IsolationSanctum, machine.IsolationKeystone, machine.IsolationNone,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			m, mon, o := newSystemOn(t, kind)
			log := &callLog{inner: o.SM.Dispatcher()}
			o.SM = smcall.New(log)
			evBase := uint64(0x4000000000)
			spec := &EnclaveSpec{
				EvBase:  evBase,
				EvMask:  ^uint64(1<<21 - 1),
				Regions: []int{3},
				Pages: []EnclavePage{
					{VA: evBase, Perms: pt.R | pt.X, Data: bytes.Repeat([]byte{0x13, 0, 0, 0}, 8)},
				},
				Shared: []SharedMapping{{VA: 0x50000000, PA: m.DRAM.Base(m.DRAM.RegionCount - 1)}},
				Threads: []ThreadSpec{
					{EntryVA: evBase, StackVA: evBase + 0x2000},
					{EntryVA: evBase, StackVA: evBase + 0x3000},
				},
			}
			before, inUse := mon.CaptureState(), metaInUse(t, o)
			if _, err := o.BuildEnclave(spec); !errors.Is(err, api.ErrInvalidValue) {
				t.Fatalf("build with a foreign shared page: %v, want invalid_value", err)
			}
			refused := -1
			for i, st := range log.stats {
				if st != api.OK {
					refused = i
					break
				}
			}
			if refused < 0 || log.calls[refused] != api.CallMapShared {
				t.Fatalf("first refusal at %d in %v, want map_shared", refused, log.names(0))
			}
			for _, c := range log.calls[refused+1:] {
				if c == api.CallLoadThread || c == api.CallInitEnclave || c == api.CallEnclaveStatus {
					t.Fatalf("calls issued from the refused map_shared on: %v", log.names(refused))
				}
			}
			if after := mon.CaptureState(); !before.Equal(after) {
				t.Fatalf("failed build changed the monitor: %s", before.Diff(after))
			}
			if after := metaInUse(t, o); !maps.Equal(after, inUse) {
				t.Fatalf("metadata pages in use: %d after the failed build, %d before", len(after), len(inUse))
			}
		})
	}
}
