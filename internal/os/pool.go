package os

import "fmt"

// Pool is the OS-side enclave pool manager over the monitor's
// snapshot/clone calls (0x30–0x32): one template enclave is built and
// measured the slow way, frozen into a snapshot, and request-serving
// workers are forked from it copy-on-write in O(page-table pages) —
// the near-zero cold start a serving system wants. Workers recycle on
// exit: their enclave is deleted, their regions cleaned, and both
// regions and metadata pages return to the pool for the next clone.
//
// The pool is untrusted resource management, exactly like the rest of
// this package: every operation travels through the monitor's call
// ABI, and nothing the pool does can violate the measurement-identity
// or isolation rules (the adversary battery tries).
type Pool struct {
	o *OS

	// Template is the built template enclave; it stays parked (never
	// scheduled) while the snapshot is live.
	Template *BuiltEnclave
	// SnapID names the monitor-side snapshot.
	SnapID uint64

	evBase, evMask uint64
	nThreads       int
	perClone       int
	templRegions   []int

	// freeRegions are OS-owned (or cleaned) regions available to back
	// clones: page tables plus copy-on-write copies. It is a FIFO:
	// Acquire takes from the front and copies the rest down, Release
	// appends. The rotation fixes which region backs each clone, hence
	// its L2 colours and modeled cycles; copying down keeps the backing
	// array from reallocating.
	freeRegions []int

	// freeTIDBases are recycled clone thread-id bases (each a run of
	// nThreads contiguous metadata pages). AllocMetaPages can only bump
	// — it never coalesces freed singles — so recycled workers reuse
	// whole bases here instead of leaking nThreads pages per cycle.
	freeTIDBases []uint64

	// Clones and Recycled count pool activity for reporting.
	Clones   int
	Recycled int
}

// Worker is one cloned enclave handed out by the pool.
type Worker struct {
	EID      uint64
	TIDs     []uint64
	SharedPA uint64 // this worker's untrusted buffer (0 = template's)
	regions  []int
}

// NewPool builds the template from spec, snapshots it, and readies
// cloneRegions (OS-owned regions, perClone consumed per worker) for
// forked workers. perClone <= 0 defaults to 1.
func NewPool(o *OS, spec *EnclaveSpec, cloneRegions []int, perClone int) (*Pool, error) {
	if perClone <= 0 {
		perClone = 1
	}
	built, err := o.BuildEnclave(spec)
	if err != nil {
		return nil, fmt.Errorf("os: pool template build: %w", err)
	}
	snapID, err := o.AllocMetaPage()
	if err != nil {
		return nil, err
	}
	if err := o.SM.SnapshotEnclave(built.EID, snapID); err != nil {
		return nil, fmt.Errorf("os: pool snapshot: %w", err)
	}
	return &Pool{
		o:            o,
		Template:     built,
		SnapID:       snapID,
		evBase:       spec.EvBase,
		evMask:       spec.EvMask,
		nThreads:     len(spec.Threads),
		perClone:     perClone,
		templRegions: append([]int(nil), spec.Regions...),
		freeRegions:  append([]int(nil), cloneRegions...),
	}, nil
}

// FreeWorkers reports how many more workers the pool can back with its
// remaining regions.
func (p *Pool) FreeWorkers() int { return len(p.freeRegions) / p.perClone }

// Acquire forks a worker from the template. sharedPA, when non-zero,
// becomes the worker's private untrusted buffer (it must be an
// OS-owned page); zero aliases the template's buffer.
func (p *Pool) Acquire(sharedPA uint64) (*Worker, error) {
	if len(p.freeRegions) < p.perClone {
		return nil, fmt.Errorf("os: pool out of clone regions")
	}
	regions := p.freeRegions[:p.perClone]
	eid, err := p.o.AllocMetaPage()
	if err != nil {
		return nil, err
	}
	var tidBase uint64
	if p.nThreads > 0 {
		if n := len(p.freeTIDBases); n > 0 {
			tidBase = p.freeTIDBases[n-1]
			p.freeTIDBases = p.freeTIDBases[:n-1]
		} else if tidBase, err = p.o.AllocMetaPages(p.nThreads); err != nil {
			p.o.ReleaseMetaPage(eid)
			return nil, err
		}
	}

	if err := p.fork(eid, regions, tidBase, sharedPA); err != nil {
		// Unwind a partial fork so the pool stays usable: the shell may
		// exist and may own some of the regions (deleting it blocks
		// them; cleaning makes them grantable again). The regions were
		// never removed from freeRegions, and the metadata pages return
		// to their allocators.
		p.o.discard(eid, regions)
		if p.nThreads > 0 {
			p.freeTIDBases = append(p.freeTIDBases, tidBase)
		}
		return nil, err
	}
	w := &Worker{EID: eid, SharedPA: sharedPA, regions: append([]int(nil), regions...)}
	p.freeRegions = p.freeRegions[:copy(p.freeRegions, p.freeRegions[p.perClone:])]
	for i := 0; i < p.nThreads; i++ {
		w.TIDs = append(w.TIDs, tidBase+uint64(i)*4096)
	}
	p.Clones++
	return w, nil
}

// fork issues a clone's monitor calls in order — create the shell,
// grant it the regions, clone the snapshot into it — and stops at the
// first refusal.
func (p *Pool) fork(eid uint64, regions []int, tidBase, sharedPA uint64) error {
	if err := p.o.SM.CreateEnclave(eid, p.evBase, p.evMask); err != nil {
		return fmt.Errorf("os: create_enclave (clone): %w", err)
	}
	for _, r := range regions {
		if err := p.o.SM.GrantRegion(r, eid); err != nil {
			return fmt.Errorf("os: grant region %d (clone): %w", r, err)
		}
	}
	if err := p.o.SM.CloneEnclave(eid, p.SnapID, tidBase, sharedPA); err != nil {
		return fmt.Errorf("os: clone_enclave: %w", err)
	}
	return nil
}

// Release recycles a worker: delete its enclave (threads revert to the
// available pool and are deleted), clean its regions, and return
// regions and metadata pages for reuse.
func (p *Pool) Release(w *Worker) error {
	if err := p.o.SM.DeleteEnclave(w.EID); err != nil {
		return fmt.Errorf("os: pool delete clone: %w", err)
	}
	for _, tid := range w.TIDs {
		if err := p.o.SM.DeleteThread(tid); err != nil {
			return fmt.Errorf("os: pool delete clone thread: %w", err)
		}
	}
	// The whole contiguous tid run goes back to the pool as one base
	// (AllocMetaPages cannot reuse freed singles); the eid page returns
	// to the OS allocator.
	if len(w.TIDs) > 0 {
		p.freeTIDBases = append(p.freeTIDBases, w.TIDs[0])
	}
	p.o.ReleaseMetaPage(w.EID)
	// The clone's regions blocked at deletion; clean them (scrub, cache
	// flush, shootdown) so the next clone starts from zeroed memory.
	for _, r := range w.regions {
		if err := p.o.SM.CleanRegion(r); err != nil {
			return fmt.Errorf("os: pool clean region %d: %w", r, err)
		}
	}
	p.freeRegions = append(p.freeRegions, w.regions...)
	p.Recycled++
	return nil
}

// Close releases the snapshot and tears the template down, returning
// its regions cleaned to the OS. Outstanding workers must have been
// released first.
func (p *Pool) Close() error {
	if err := p.o.SM.ReleaseSnapshot(p.SnapID); err != nil {
		return fmt.Errorf("os: pool release snapshot: %w", err)
	}
	p.o.ReleaseMetaPage(p.SnapID)
	if err := p.o.SM.DeleteEnclave(p.Template.EID); err != nil {
		return fmt.Errorf("os: pool delete template: %w", err)
	}
	for _, tid := range p.Template.TIDs {
		if err := p.o.SM.DeleteThread(tid); err != nil {
			return fmt.Errorf("os: pool delete template thread: %w", err)
		}
		p.o.ReleaseMetaPage(tid)
	}
	p.o.ReleaseMetaPage(p.Template.EID)
	// The template's regions blocked at deletion; clean them so they
	// come back Available with no enclave data (and, in tests, with
	// every page refcount back to zero).
	for _, r := range p.templRegions {
		if err := p.o.SM.CleanRegion(r); err != nil {
			return fmt.Errorf("os: pool clean template region %d: %w", r, err)
		}
	}
	return nil
}
