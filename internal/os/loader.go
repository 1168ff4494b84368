package os

import (
	"errors"
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

// discard unwinds a failed build or fork of enclave eid: it deletes the
// enclave, cleans each of regions the deletion left blocked, and
// returns eid's metadata page to the allocator. It returns the regions
// it cleaned; a region the enclave never received is not blocked, so
// its clean is refused and it stays as it was. Best-effort — the
// failure being unwound is the one reported.
func (o *OS) discard(eid uint64, regions []int) (cleaned []int) {
	if o.SM.DeleteEnclave(eid) == nil {
		for _, r := range regions {
			if o.SM.CleanRegion(r) == nil {
				cleaned = append(cleaned, r)
			}
		}
	}
	o.ReleaseMetaPage(eid)
	return cleaned
}

// BuildEnclave drives the monitor's loading API (Fig 3) end to end:
// create, grant, allocate tables, load pages, map shared windows, load
// threads, init. The call sequence is canonical so that
// ExpectedMeasurement predicts the result exactly. Each step is one
// monitor call, and the build stops at the first refusal, so
// init_enclave never seals a partially loaded enclave. Page loads are
// staged through the kernel's staging page one at a time, exactly as
// an S-mode kernel would reuse a bounce buffer. A failed build leaves
// nothing behind: the enclave is deleted, the regions it was granted
// are cleaned and granted back to the OS, and its threads are deleted,
// all pages returned.
func (o *OS) BuildEnclave(spec *EnclaveSpec) (_ *BuiltEnclave, err error) {
	eid, err := o.AllocMetaPage()
	if err != nil {
		return nil, err
	}
	built := &BuiltEnclave{EID: eid}
	defer func() {
		if err == nil {
			return
		}
		// Best-effort, like discard: the build's own error is the one
		// reported, so a refused grant-back leaves its region cleaned.
		for _, r := range o.discard(eid, spec.Regions) {
			_ = o.SM.GrantRegion(r, api.DomainOS)
		}
		for _, tid := range built.TIDs {
			// A thread never loaded is unknown to the monitor: its page
			// is free as well.
			if terr := o.SM.DeleteThread(tid); terr == nil || errors.Is(terr, api.ErrInvalidValue) {
				o.ReleaseMetaPage(tid)
			}
		}
	}()

	var vas []uint64
	for _, p := range spec.Pages {
		vas = append(vas, p.VA)
	}
	for _, s := range spec.Shared {
		vas = append(vas, s.VA)
	}

	if err := o.SM.CreateEnclave(eid, spec.EvBase, spec.EvMask); err != nil {
		return nil, fmt.Errorf("os: create_enclave: %w", err)
	}
	for _, r := range spec.Regions {
		if err := o.SM.GrantRegion(r, eid); err != nil {
			return nil, fmt.Errorf("os: grant region %d: %w", r, err)
		}
	}
	for _, ta := range TablePlan(vas) {
		if err := o.SM.AllocatePageTable(eid, ta.VA, ta.Level); err != nil {
			return nil, fmt.Errorf("os: allocate_page_table(va=%#x, level=%d): %w", ta.VA, ta.Level, err)
		}
	}

	// Stage each page in kernel memory and load it.
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

	for _, s := range spec.Shared {
		if err := o.SM.MapShared(eid, s.VA, s.PA); err != nil {
			return nil, fmt.Errorf("os: map_shared(va=%#x): %w", s.VA, err)
		}
	}
	for _, t := range spec.Threads {
		tid, err := o.AllocMetaPage()
		if err != nil {
			return nil, err
		}
		built.TIDs = append(built.TIDs, tid)
		if err := o.SM.LoadThread(eid, tid, t.EntryVA, t.StackVA); err != nil {
			return nil, fmt.Errorf("os: load_thread(entry=%#x): %w", t.EntryVA, err)
		}
	}

	// Seal, and read the measurement back through OS memory: the
	// monitor writes it to the staging page.
	if err := o.SM.InitEnclave(eid); err != nil {
		return nil, fmt.Errorf("os: init_enclave: %w", err)
	}
	if _, err := o.SM.EnclaveStatus(eid, stagePA); err != nil {
		return nil, fmt.Errorf("os: enclave_status: %w", err)
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
