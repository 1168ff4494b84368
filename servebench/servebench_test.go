package main

import (
	"math"
	"testing"

	"sanctorum/internal/telemetry"
)

// TestSeedReplays runs one seed twice per workload: the generated
// request streams must match, and so must the deterministic passes'
// modeled cycles and response digests, and their allocations to a
// tenth of a percent (a percent under the race detector).
func TestSeedReplays(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.detN /= 10
			const seed = 7
			a, b := w.gen(seed), w.gen(seed)
			var qa, qb request
			for i := 0; i < w.detN; i++ {
				a(&qa)
				b(&qb)
				if qa != qb {
					t.Fatalf("request %d differs: %+v vs %+v", i, qa, qb)
				}
			}
			// A first pass warms process-wide caches (type metadata,
			// sync.Once initializers) so that the two compared passes
			// allocate alike.
			var runs [3]detResult
			for i := range runs {
				r := &runner{w: &w, seed: seed, res: result{Metrics: map[string]metric{}}}
				st, err := r.build(false)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = r.detPass(st, w.gen(seed), nil)
			}
			// Allocations may differ by a few: every Go map seeds its
			// hash randomly, so when the monitor's maps grow depends on
			// the seed. The race detector also makes sync.Pool drop
			// items at random.
			x, y := runs[1], runs[2]
			tol := x.allocs / 1000
			if raceEnabled {
				tol = x.allocs / 100
			}
			if x.cycles != y.cycles || x.digest != y.digest || diff(x.allocs, y.allocs) > tol {
				t.Fatalf("seed %d replayed differently: cycles %d/%d, allocs %d/%d, digest %x/%x",
					seed, x.cycles, y.cycles, x.allocs, y.allocs, x.digest[:8], y.digest[:8])
			}
			if x.failed() > 0 {
				t.Fatalf("deterministic pass: %d stale reads, %d wrong answers, %d errors", x.stale, x.wrong, x.errs)
			}
			t.Logf("%s: %d requests, %d cycles, %d allocs, digest %x",
				w.name, w.detN, x.cycles, x.allocs, x.digest[:8])
		})
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestSelfCycles checks the span self-time arithmetic: a child's
// overlap is removed once, however its siblings overlap it.
func TestSelfCycles(t *testing.T) {
	got := selfCycles(spansOf(
		[5]int{0, -1, 0, 0, 100}, // root: router 0..100
		[5]int{1, 0, 1, 10, 40},  // shard 10..40
		[5]int{2, 0, 1, 30, 60},  // shard 30..60, overlapping the first
		[5]int{3, 1, 2, 15, 20},  // gateway inside the first shard span
	))
	want := map[string]uint64{"router": 50, "shard": 25 + 30, "gateway": 5}
	for layer, c := range want {
		if got[layer] != c {
			t.Errorf("%s self cycles = %d, want %d", layer, got[layer], c)
		}
	}
}

// spansOf builds spans from {id, parent, layer index, begin, end},
// layers indexing traceLayers.
func spansOf(rows ...[5]int) []telemetry.Span {
	var out []telemetry.Span
	for _, r := range rows {
		out = append(out, telemetry.Span{ID: r[0], Parent: r[1], Layer: traceLayers[r[2]],
			Begin: uint64(r[3]), End: uint64(r[4])})
	}
	return out
}

// TestFleetSpillServesStaleReads pins the fleet's known defect that
// fleet-kv's admission size keeps out of the measured runs: with
// admissions larger than a worker's 64-message ring, KeyAffinity
// spills a hot session to a worker that keeps its own KV store, and
// later reads of that session come back stale. When the router keeps
// every session on one worker, this test fails: then raise fleet-kv's
// admission above the ring (RECORD.md) and delete the test.
func TestFleetSpillServesStaleReads(t *testing.T) {
	w := *workloadNamed("fleet-kv")
	w.admit, w.detN = 256, 20000
	r := &runner{w: &w, seed: 7, res: result{Metrics: map[string]metric{}}}
	st, err := r.build(false)
	if err != nil {
		t.Fatal(err)
	}
	d := r.detPass(st, w.gen(r.seed), nil)
	if d.wrong+d.errs > 0 {
		t.Fatalf("%d wrong answers, %d errors besides stale reads", d.wrong, d.errs)
	}
	if d.stale == 0 {
		t.Fatalf("no stale reads in %d requests at %d per admission: the spill defect is gone", d.attempted, w.admit)
	}
	t.Logf("%d of %d requests stale at %d per admission", d.stale, d.attempted, w.admit)
}

// TestSpeedScale checks the host-speed scaling: an interval between
// two kernel samples at twice the nominal time counts half.
func TestSpeedScale(t *testing.T) {
	sp := speed{2 * refNominalNS, 2 * refNominalNS, refNominalNS}
	if got := sp.scale(0); got != 0.5 {
		t.Fatalf("scale(0) = %v, want 0.5", got)
	}
	if got := sp.scale(1); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("scale(1) = %v, want 2/3", got)
	}
}
