// Package mc is the monitor's lifecycle model checker (DESIGN.md §10):
// a deterministic interleaving explorer that drives scripted sequences
// of Monitor.Dispatch calls from multiple caller domains — the
// untrusted OS and several enclaves — through systematically permuted
// schedules, checking the shared invariant suite
// (sm.Monitor.CheckInvariants) after every step. Exhaustive mode
// enumerates every interleaving of short per-actor step lists; random
// mode draws seeded uniform interleavings over longer scripts and can
// force spurious transaction-lock failures through the monitor's fault
// hook (sm.Monitor.SetLockFaultHook), proving the §V-A ErrRetry
// discipline converges and that every refused call leaves the state
// machine bit-untouched.
//
// The package is verification scaffolding, not monitor code: it lives
// outside the TCB (cmd/tcbcount counts it under "verification &
// clients") and touches the monitor only through the public ABI plus
// the exported capture/invariant/fault-hook surface.
package mc

import (
	"fmt"
	"sort"

	"sanctorum"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
)

// Evrange used by minimal hand-loaded enclaves (matching the sm test
// fixtures): a 1 GiB-aligned window high in the canonical space.
const (
	evBase = uint64(0x4000000000)
	evMask = ^uint64(1<<30 - 1)
)

// Wake records one park/wake notification the monitor posted through
// the OS wake sink.
type Wake struct {
	Ring, EID, TID uint64
}

// World is one fresh booted system a single schedule runs against:
// machine, monitor, untrusted OS, plus the bookkeeping scripts share.
type World struct {
	Sys *sanctorum.System
	// Wakes accumulates park/wake notifications, in posting order.
	Wakes []Wake
	// IDs holds named object ids (metadata pages, region indices)
	// allocated during script setup for steps to use.
	IDs map[string]uint64
}

// Config parameterizes a world. The zero value is usable: a 2-core
// baseline machine with 24 64 KiB regions and seed 0.
type Config struct {
	Seed        uint64
	Cores       int
	RegionCount int
}

// NewWorld boots a fresh deterministic system. Worlds with the same
// config are bit-identical, so a failing schedule replays exactly.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 2
	}
	if cfg.RegionCount == 0 {
		cfg.RegionCount = 24
	}
	sys, err := sanctorum.NewSystem(sanctorum.Options{
		Kind:        sanctorum.Baseline,
		Cores:       cfg.Cores,
		RegionShift: 16,
		RegionCount: cfg.RegionCount,
		Seed:        fmt.Appendf(nil, "mc-world-%d", cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	w := &World{Sys: sys, IDs: make(map[string]uint64)}
	sys.Monitor.SetWakeSink(func(ring, eid, tid uint64) {
		w.Wakes = append(w.Wakes, Wake{Ring: ring, EID: eid, TID: tid})
	})
	return w, nil
}

// Call submits one raw OS-domain monitor call, bypassing the smcall
// retry loop: the explorer owns retries (ErrRetry re-injection keeps
// the actor's cursor in place).
func (w *World) Call(c api.Call, args ...uint64) api.Error {
	return w.Sys.Monitor.Dispatch(api.OSRequest(c, args...)).Status
}

// MetaPage allocates a metadata page for a new object id and records
// it under name.
func (w *World) MetaPage(name string) (uint64, error) {
	pa, err := w.Sys.OS.AllocMetaPage()
	if err != nil {
		return 0, err
	}
	w.IDs[name] = pa
	return pa, nil
}

// Retry submits a call with the §V-A caller discipline: retry a
// bounded number of spurious ErrRetry refusals before giving up and
// surfacing ErrRetry to the caller. Multi-transaction steps use it so
// a single injected fault doesn't strand them half-done.
func (w *World) Retry(c api.Call, args ...uint64) api.Error {
	st := api.ErrRetry
	for attempt := 0; attempt < 128 && st == api.ErrRetry; attempt++ {
		st = w.Call(c, args...)
	}
	return st
}

// BuildMinimal creates, loads, and initializes a minimal enclave
// through raw ABI calls — one granted region, page tables, one R|X
// page, one thread — and records "<name>" / "<name>-tid" in IDs. It
// is the metadata-lifecycle counterpart of the facade's BuildEnclave:
// no runnable program, just a fully initialized state-machine object.
// The returned status is the first refusal (after bounded ErrRetry
// absorption), api.OK on success.
func (w *World) BuildMinimal(name string, region int) api.Error {
	eid, err := w.MetaPage(name)
	if err != nil {
		return api.ErrNoResources
	}
	tid, err := w.MetaPage(name + "-tid")
	if err != nil {
		return api.ErrNoResources
	}
	src, err := w.Sys.OS.AllocPagePA()
	if err != nil {
		return api.ErrNoResources
	}
	seq := []struct {
		call api.Call
		args []uint64
	}{
		{api.CallCreateEnclave, []uint64{eid, evBase, evMask}},
		{api.CallGrantRegion, []uint64{uint64(region), eid}},
		{api.CallAllocPageTable, []uint64{eid, 0, 2}},
		{api.CallAllocPageTable, []uint64{eid, evBase, 1}},
		{api.CallAllocPageTable, []uint64{eid, evBase, 0}},
		{api.CallLoadPage, []uint64{eid, evBase, src, pt.R | pt.X}},
		{api.CallLoadThread, []uint64{eid, tid, evBase, evBase + 0x800}},
		{api.CallInitEnclave, []uint64{eid}},
	}
	for _, s := range seq {
		if st := w.Retry(s.call, s.args...); st != api.OK {
			return st
		}
	}
	return api.OK
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Teardown drives the monitor back to an empty state through the
// public ABI — the universal destructor every schedule must survive:
// resume any thread still holding a core, destroy rings, revoke
// grants, delete clones, release snapshots, delete remaining enclaves,
// unassign and delete leftover threads, then clean blocked regions —
// repeated to a fixpoint. It then requires total emptiness: no live objects, no
// metadata pages, zero physical page references, and every invariant
// holding. A teardown that cannot reach zero is a refcount or
// ownership leak some interleaving planted.
func (w *World) Teardown() error {
	mon := w.Sys.Monitor
	mon.SetLockFaultHook(nil)
	for round := 0; round < 256; round++ {
		s := mon.CaptureState()
		if w.teardownDone(s) {
			return w.verifyEmpty()
		}
		progress := false
		// Any core still running enclave code must finish (park or
		// exit) before its enclave can be deleted.
		for c, slot := range s.Cores {
			if slot.Owner != api.DomainOS {
				if _, err := w.Sys.Resume(c, 4_000_000); err == nil {
					progress = true
				}
			}
		}
		for _, id := range sortedKeys(s.Rings) {
			if w.Call(api.CallRingDestroy, id) == api.OK {
				progress = true
			}
		}
		for _, id := range sortedKeys(s.Grants) {
			if w.Call(api.CallBulkRevoke, id) == api.OK {
				progress = true
			}
		}
		for _, eid := range sortedKeys(s.Enclaves) {
			if s.Enclaves[eid].CloneOf != 0 && w.Call(api.CallDeleteEnclave, eid) == api.OK {
				progress = true
			}
		}
		for _, id := range sortedKeys(s.Snapshots) {
			if w.Call(api.CallReleaseSnapshot, id) == api.OK {
				progress = true
			}
		}
		for _, eid := range sortedKeys(s.Enclaves) {
			if s.Enclaves[eid].CloneOf == 0 && w.Call(api.CallDeleteEnclave, eid) == api.OK {
				progress = true
			}
		}
		for _, tid := range sortedKeys(s.Threads) {
			if s.Threads[tid].Owner != 0 && w.Call(api.CallUnassignThread, tid) == api.OK {
				progress = true
			}
			if w.Call(api.CallDeleteThread, tid) == api.OK {
				progress = true
			}
		}
		for r, rm := range s.Regions {
			if rm.State == sm.RegionBlocked && w.Call(api.CallCleanRegion, uint64(r)) == api.OK {
				progress = true
			}
		}
		if !progress {
			s = mon.CaptureState()
			return fmt.Errorf("mc: teardown stuck: %d enclaves, %d threads, %d snapshots, %d rings, %d grants, %d meta pages",
				len(s.Enclaves), len(s.Threads), len(s.Snapshots), len(s.Rings), len(s.Grants), len(s.MetaPages))
		}
	}
	return fmt.Errorf("mc: teardown did not reach a fixpoint in 256 rounds")
}

func (w *World) teardownDone(s *sm.StateSnapshot) bool {
	if len(s.Enclaves) != 0 || len(s.Threads) != 0 || len(s.Snapshots) != 0 || len(s.Rings) != 0 || len(s.Grants) != 0 {
		return false
	}
	for _, rm := range s.Regions {
		if rm.State == sm.RegionBlocked || rm.State == sm.RegionPending {
			return false
		}
	}
	return true
}

func (w *World) verifyEmpty() error {
	mon := w.Sys.Monitor
	if err := mon.CheckInvariants(); err != nil {
		return fmt.Errorf("mc: post-teardown invariants: %w", err)
	}
	s := mon.CaptureState()
	if len(s.MetaPages) != 0 {
		return fmt.Errorf("mc: %d metadata pages leaked after teardown", len(s.MetaPages))
	}
	if s.PageRefs != 0 {
		return fmt.Errorf("mc: %d physical page references leaked after teardown", s.PageRefs)
	}
	return nil
}
