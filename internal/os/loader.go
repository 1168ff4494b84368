package os

import (
	"fmt"
	"sort"

	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
)

// EnclavePage is one page of enclave initial state.
type EnclavePage struct {
	VA    uint64
	Perms uint64 // pt.R/pt.W/pt.X
	Data  []byte // at most a page; zero-padded
}

// ThreadSpec describes one enclave thread to load.
type ThreadSpec struct {
	EntryVA uint64
	StackVA uint64 // initial stack pointer
}

// SharedMapping maps an OS physical page into the enclave's tables
// outside evrange (Keystone-style untrusted buffer).
type SharedMapping struct {
	VA uint64
	PA uint64
}

// EnclaveSpec is everything needed to build (and to predict the
// measurement of) an enclave.
type EnclaveSpec struct {
	EvBase  uint64
	EvMask  uint64
	Regions []int // DRAM regions to grant before loading
	Pages   []EnclavePage
	Shared  []SharedMapping
	Threads []ThreadSpec
}

// TableAlloc is one page-table allocation in canonical order.
type TableAlloc struct {
	VA    uint64
	Level int
}

// TablePlan computes the canonical page-table allocation sequence for a
// set of mapped VAs: the root first, then level-1 tables by ascending
// normalized VA, then level-0 tables likewise. Builder and measurement
// replayer share this order, so predicted and actual measurements agree.
func TablePlan(vas []uint64) []TableAlloc {
	plan := []TableAlloc{{VA: 0, Level: pt.Levels - 1}}
	for level := pt.Levels - 2; level >= 0; level-- {
		seen := map[uint64]bool{}
		var prefixes []uint64
		for _, va := range vas {
			n := sm.NormalizeTableVA(va, level)
			if !seen[n] {
				seen[n] = true
				prefixes = append(prefixes, n)
			}
		}
		sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
		for _, p := range prefixes {
			plan = append(plan, TableAlloc{VA: p, Level: level})
		}
	}
	return plan
}

// BuiltEnclave is the result of BuildEnclave.
type BuiltEnclave struct {
	EID         uint64
	TIDs        []uint64
	Measurement [32]byte
}

// batch is a labelled ABI request sequence: the labels keep loader
// errors as descriptive as the direct calls they replaced.
type batch struct {
	labels []string
	reqs   []api.Request
}

func (b *batch) add(label string, req api.Request) {
	b.labels = append(b.labels, label)
	b.reqs = append(b.reqs, req)
}

// run submits the sequence through the client's batched path and
// converts the first failed element into an error.
func (b *batch) run(o *OS) error {
	return submit(o, b.reqs, func(i int) string { return b.labels[i] })
}

// submit is batch.run for callers that name a failed element only
// once it failed: label(i) is called for the first non-OK element.
func submit(o *OS, reqs []api.Request, label func(i int) string) error {
	if len(reqs) == 0 {
		return nil
	}
	resps, err := o.SM.Batch(reqs)
	if err != nil {
		return fmt.Errorf("os: batched monitor call: %w", err)
	}
	for i, resp := range resps {
		if resp.Status != api.OK {
			return fmt.Errorf("os: %s: %w", label(i), resp.Status)
		}
	}
	return nil
}

// BuildEnclave drives the monitor's loading API (Fig 3) end to end:
// create, grant, allocate tables, load pages, map shared windows, load
// threads, init. The call sequence is canonical so that
// ExpectedMeasurement predicts the result exactly. Calls that need no
// inter-call staging travel as batched submissions, which lets the
// monitor hold the enclave's transaction lock across the sequence
// instead of re-acquiring it per call; page loads are staged through
// the kernel's staging page one at a time, exactly as an S-mode kernel
// would reuse a bounce buffer.
func (o *OS) BuildEnclave(spec *EnclaveSpec) (*BuiltEnclave, error) {
	eid, err := o.AllocMetaPage()
	if err != nil {
		return nil, err
	}

	var vas []uint64
	for _, p := range spec.Pages {
		vas = append(vas, p.VA)
	}
	for _, s := range spec.Shared {
		vas = append(vas, s.VA)
	}

	// Phase 1 — create, grants, page tables: pure register calls, one
	// batch.
	setup := &batch{}
	setup.add("create_enclave",
		api.OSRequest(api.CallCreateEnclave, eid, spec.EvBase, spec.EvMask))
	for _, r := range spec.Regions {
		setup.add(fmt.Sprintf("grant region %d", r),
			api.OSRequest(api.CallGrantRegion, uint64(r), eid))
	}
	for _, ta := range TablePlan(vas) {
		setup.add(fmt.Sprintf("allocate_page_table(va=%#x, level=%d)", ta.VA, ta.Level),
			api.OSRequest(api.CallAllocPageTable, eid, ta.VA, uint64(ta.Level)))
	}
	if err := setup.run(o); err != nil {
		return nil, err
	}

	// Phase 2 — stage each page in kernel memory and load it.
	stagePA, err := o.StagePage()
	if err != nil {
		return nil, err
	}
	for _, p := range spec.Pages {
		if len(p.Data) > mem.PageSize {
			return nil, fmt.Errorf("os: page at %#x larger than a page", p.VA)
		}
		var buf [mem.PageSize]byte
		copy(buf[:], p.Data)
		if err := o.WriteOwned(stagePA, buf[:]); err != nil {
			return nil, err
		}
		if err := o.SM.LoadPage(eid, p.VA, stagePA, p.Perms); err != nil {
			return nil, fmt.Errorf("os: load_page(va=%#x): %w", p.VA, err)
		}
	}

	// Phase 3 — shared windows and threads. Batched, but sealed
	// separately: a batch reports the first failure only after running
	// every element, and init_enclave must never execute past a failed
	// load — sealing a partially built enclave would finalize a bogus
	// measurement instead of leaving the enclave Loading (and
	// deletable).
	built := &BuiltEnclave{EID: eid}
	contents := &batch{}
	for _, s := range spec.Shared {
		contents.add(fmt.Sprintf("map_shared(va=%#x)", s.VA),
			api.OSRequest(api.CallMapShared, eid, s.VA, s.PA))
	}
	for _, t := range spec.Threads {
		tid, err := o.AllocMetaPage()
		if err != nil {
			return nil, err
		}
		contents.add(fmt.Sprintf("load_thread(entry=%#x)", t.EntryVA),
			api.OSRequest(api.CallLoadThread, eid, tid, t.EntryVA, t.StackVA))
		built.TIDs = append(built.TIDs, tid)
	}
	if err := contents.run(o); err != nil {
		return nil, err
	}

	// Phase 4 — seal and read the measurement back through OS memory:
	// the monitor writes it to the staging page in the same batch.
	seal := &batch{}
	seal.add("init_enclave", api.OSRequest(api.CallInitEnclave, eid))
	seal.add("enclave_status", api.OSRequest(api.CallEnclaveStatus, eid, stagePA))
	if err := seal.run(o); err != nil {
		return nil, err
	}

	meas, err := o.ReadOwned(stagePA, len(built.Measurement))
	if err != nil {
		return nil, fmt.Errorf("os: reading measurement: %w", err)
	}
	copy(built.Measurement[:], meas)
	return built, nil
}

// ExpectedMeasurement replays the measurement transcript for a spec
// without touching a machine: the computation a remote verifier (or the
// author of a signing-enclave policy) performs to learn what a
// correctly-loaded enclave must measure as (§VI-A).
func ExpectedMeasurement(spec *EnclaveSpec) [32]byte {
	m := sm.NewMeasurement()
	m.ExtendCreate(spec.EvBase, spec.EvMask)
	var vas []uint64
	for _, p := range spec.Pages {
		vas = append(vas, p.VA)
	}
	for _, s := range spec.Shared {
		vas = append(vas, s.VA)
	}
	for _, ta := range TablePlan(vas) {
		m.ExtendPageTable(sm.NormalizeTableVA(ta.VA, ta.Level), ta.Level)
	}
	for _, p := range spec.Pages {
		var buf [mem.PageSize]byte
		copy(buf[:], p.Data)
		m.ExtendPage(p.VA, p.Perms, buf[:])
	}
	for _, s := range spec.Shared {
		m.ExtendShared(s.VA)
	}
	for _, t := range spec.Threads {
		m.ExtendThread(t.EntryVA, t.StackVA)
	}
	return m.Finalize()
}
