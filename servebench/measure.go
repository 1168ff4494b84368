package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors every timestamp the benchmark takes (monotonic ns).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// tally counts served requests by verdict.
type tally struct {
	attempted, stale, wrong, errs int
}

func (t *tally) add(v verdict) {
	t.attempted++
	switch v {
	case vStale:
		t.stale++
	case vWrong:
		t.wrong++
	case vError:
		t.errs++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.stale += o.stale
	t.wrong += o.wrong
	t.errs += o.errs
}

func (t tally) failed() int { return t.stale + t.wrong + t.errs }

// The host-speed reference. The benchmark runs on virtual machines
// whose speed drifts by tens of percent within minutes (neighbours on
// the same physical cores and caches, hypervisor steal), far more than
// the bounds a regression check needs. Every timed interval is
// therefore bracketed by samples of a fixed reference kernel that does
// not touch the system under test, and each time is reported scaled to
// the speed at which one sample takes refNominalNS:
//
//	scaled = measured × refNominalNS / (mean of the samples around it)
//
// A host that runs everything 30% slower leaves the scaled figures
// where they were; a change to the system moves them as it moves the
// measured ones. The unscaled figures are printed beside them.

// refNominalNS is about one sample's time on a 2-vCPU Intel Xeon
// virtual machine (Go 1.24, linux/amd64). Any fixed value would do:
// commits are compared at the same nominal speed.
const refNominalNS = 4.0e6

// A sample has two halves of about equal time, because the workloads
// lean on different parts of the host: refMixIters rounds of
// data-dependent branches over a 256 KiB table and a small hash map
// (like the simulator's own loops), then refCopies copies of 2 KiB
// blocks within a 1 MiB buffer (like staging values in and out of
// simulated memory).
const (
	refMixIters = 80_000
	refCopies   = 16_000
)

var (
	refTable = make([]uint64, 1<<15)
	refMap   = make(map[uint64]uint64, 1024)
	refBuf   = make([]byte, 1<<20)
	refSink  uint64
)

// refSample runs the kernel once and returns its time in ns.
func refSample() float64 {
	x := refSink
	t := now()
	for i := 0; i < refMixIters; i++ {
		x = splitmix(x)
		j := x & (1<<15 - 1)
		switch x >> 62 {
		case 0:
			refTable[j] += x
		case 1:
			x ^= refTable[j]
		case 2:
			refMap[x&1023] = x
		default:
			x += refMap[(x>>7)&1023]
		}
	}
	const block, span = 2048, 1<<20 - 2048
	for i := 0; i < refCopies; i++ {
		x = splitmix(x)
		a, b := int(x%span)&^(block-1), int((x>>32)%span)&^(block-1)
		copy(refBuf[a:a+block], refBuf[b:b+block])
	}
	d := now() - t
	refSink = x
	return float64(d)
}

// speed is a sequence of kernel samples taken between timed intervals:
// interval i lies between samples i and i+1.
type speed []float64

// scale is the factor that brings interval i to the nominal speed.
func (s speed) scale(i int) float64 {
	return 2 * refNominalNS / (s[i] + s[i+1])
}

// window is one closed-loop measurement interval.
type window struct {
	ns       int64     // wall time serving
	requests int       // requests answered
	lat      []float64 // per admission, ns from admission to its last answer
}

// closedLoop serves from one goroutine, one admission of admit
// requests at a time, each admitted as soon as the previous one is
// answered. Stack i serves the stream nexts[i] yields. Each stack
// serves for warm first; then the stacks take turns, one window of
// windowNS each, until dur has passed, with a host-speed sample before
// the first window and after every window. Every answer is checked
// and tallied.
//
// Separately built stacks of one workload run a few percent apart
// even side by side (heap layout, map hash seeds), so the windows
// rotate over several and the run's figures do not hang on one.
func closedLoop(sts []stack, nexts []gen, admit int, warm, dur time.Duration) ([]window, speed, tally) {
	reqs := make([]request, admit)
	out := make([]outcome, admit)
	var t tally
	serve := func(k int, w *window) {
		for i := range reqs {
			nexts[k](&reqs[i])
		}
		start := now()
		sts[k].serve(reqs, out)
		last := start
		for i := range out {
			t.add(out[i].v)
			last = max(last, out[i].done)
		}
		if w != nil {
			w.lat = append(w.lat, float64(last-start))
			w.requests += admit
		}
	}
	for k := range sts {
		for end := now() + int64(warm); now() < end; {
			serve(k, nil)
		}
	}
	var ws []window
	sp := speed{refSample()}
	for end := now() + int64(dur); now() < end; {
		k := len(ws) % len(sts)
		var w window
		t0 := now()
		for now()-t0 < windowNS {
			serve(k, &w)
		}
		w.ns = now() - t0
		ws = append(ws, w)
		sp = append(sp, refSample())
	}
	return ws, sp, t
}

// windowNS is one closed-loop window: many admissions on every
// workload, and short against the host's slower swings, so the
// kernel samples on either side see the speed the window ran at.
const windowNS = int64(100 * time.Millisecond)

// quantile returns the nearest-rank q-quantile of sorted xs: the
// smallest value with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
