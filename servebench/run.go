package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sanctorum/internal/telemetry"
)

// workload fixes everything a run of one workload needs besides the
// seed and the run length.
type workload struct {
	name  string
	admit int // requests per admission, in every phase
	detN  int // requests in the deterministic pass
	build func(parallel bool) (stack, error)
	gen   func(seed uint64) gen
}

var workloads = []workload{
	{
		name: "fleet-kv", admit: 64, detN: 100000,
		build: func(parallel bool) (stack, error) { return buildFleet(parallel) },
		gen:   newFleetGen,
	},
	{
		name: "bulk-kv", admit: 32, detN: 24000,
		build: func(bool) (stack, error) { return buildBulk() },
		gen:   newBulkGen,
	},
	{
		name: "cold-start", admit: 1, detN: 20000,
		build: func(bool) (stack, error) { return buildCold() },
		gen:   newColdGen,
	},
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Run shape: setupBuilds timed stack builds; the closed loop rotates
// over loopStacks stacks, each serving warmUp before the measured
// windows.
const (
	setupBuilds = 21
	loopStacks  = 4
	warmUp      = 200 * time.Millisecond
)

// runner carries one run's state.
type runner struct {
	w      *workload
	seed   uint64
	budget time.Duration
	res    result
	total  tally
}

func (r *runner) put(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Printf("CHECK FAILED: "+format+"\n", args...)
}

func (r *runner) build(parallel bool) (stack, error) {
	st, err := r.w.build(parallel)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", r.w.name, err)
	}
	return st, nil
}

// detResult is one deterministic pass.
type detResult struct {
	wallNS  int64
	cycles  uint64
	allocs  uint64
	digest  [32]byte
	batches int
	tally
}

// detPass serves the next detN requests of next on st in admissions
// of the workload's size. Nothing in it depends on time, so its
// cycles, answers and digest depend only on the seed.
func (r *runner) detPass(st stack, next gen, hook func(batch int)) detResult {
	w := r.w
	reqs := make([]request, w.admit)
	out := make([]outcome, w.admit)
	dig := sha256.New()
	st.setDigest(dig)
	hs := st.hosts()
	var res detResult
	for _, h := range hs {
		res.cycles -= h.M.CycleNow()
	}
	runtime.GC()
	m0 := mallocs()
	t0 := now()
	for done := 0; done < w.detN; done += w.admit {
		n := min(w.admit, w.detN-done)
		for i := 0; i < n; i++ {
			next(&reqs[i])
		}
		if hook != nil {
			hook(res.batches)
		}
		st.serve(reqs[:n], out[:n])
		res.batches++
		for i := 0; i < n; i++ {
			res.add(out[i].v)
		}
	}
	res.wallNS = now() - t0
	res.allocs = mallocs() - m0
	for _, h := range hs {
		res.cycles += h.M.CycleNow()
	}
	st.setDigest(nil)
	copy(res.digest[:], dig.Sum(nil))
	r.total.merge(res.tally)
	return res
}

// setupTimes builds the workload's stack n times, each build between
// two host-speed samples, and returns the build times in seconds as
// measured and scaled to the nominal speed.
func (r *runner) setupTimes(n int) (raw, scaled []float64, err error) {
	sp := speed{refSample()}
	for i := 0; i < n; i++ {
		t := now()
		if _, err := r.build(false); err != nil {
			return nil, nil, err
		}
		d := float64(now()-t) / 1e9
		sp = append(sp, refSample())
		raw = append(raw, d)
		scaled = append(scaled, d*sp.scale(i))
	}
	return raw, scaled, nil
}

// untraced is the measured run: set-up times, the deterministic pass,
// then the closed loop over that stack and three more, all untraced.
func (r *runner) untraced() error {
	w := r.w
	rawSetup, setup, err := r.setupTimes(setupBuilds)
	if err != nil {
		return err
	}
	r.put("setup_s", median(setup), "s")
	fmt.Printf("setup: %d builds, median %.4fs scaled, %.4fs as measured (min %.4fs, max %.4fs)\n",
		len(setup), median(setup), median(rawSetup), sortedCopy(rawSetup)[0], sortedCopy(rawSetup)[len(rawSetup)-1])

	st, err := r.build(false)
	if err != nil {
		return err
	}
	next := w.gen(r.seed)
	det := r.detPass(st, next, nil)
	n := float64(w.detN)
	fmt.Printf("%s seed=%d deterministic pass: %d requests in %d admissions, %.1f cycles/req, %.2f allocs/req, digest %x, %.0f ns/req wall\n",
		w.name, r.seed, w.detN, det.batches, float64(det.cycles)/n, float64(det.allocs)/n, det.digest[:8], float64(det.wallNS)/n)
	r.put("sim_cycles_per_req", float64(det.cycles)/n, "cycles")
	r.put("allocs_per_req", float64(det.allocs)/n, "count")

	sts, nexts := []stack{st}, []gen{next}
	for len(sts) < loopStacks {
		st, err := r.build(false)
		if err != nil {
			return err
		}
		sts, nexts = append(sts, st), append(nexts, w.gen(r.seed))
	}
	ws, sp, t := closedLoop(sts, nexts, w.admit, warmUp, r.budget)
	r.total.merge(t)
	// Throughput is the median over windows; latency quantiles are
	// over every admission of the run, each scaled by its window's
	// host speed.
	var rps, rawRPS, lat, rawLat []float64
	requests := 0
	for i, win := range ws {
		f := sp.scale(i)
		rps = append(rps, float64(win.requests)*1e9/(float64(win.ns)*f))
		rawRPS = append(rawRPS, float64(win.requests)*1e9/float64(win.ns))
		for _, l := range win.lat {
			lat = append(lat, l*f/1e3)
			rawLat = append(rawLat, l/1e3)
		}
		requests += win.requests
	}
	sort.Float64s(lat)
	sort.Float64s(rawLat)
	r.put("req_per_s", median(rps), "1/s")
	r.put("p50_us", quantile(lat, 0.5), "us")
	r.put("p90_us", quantile(lat, 0.9), "us")
	n50, n90 := len(lat)-int(math.Ceil(0.5*float64(len(lat)))), len(lat)-int(math.Ceil(0.9*float64(len(lat))))
	fmt.Printf("closed loop: %d requests in %d admissions of %d over %d windows on %d stacks; scaled: %.0f req/s (window median), p50 %.2fus (%d admissions beyond), p90 %.2fus (%d beyond)\n",
		requests, len(lat), w.admit, len(ws), len(sts), median(rps), quantile(lat, 0.5), n50, quantile(lat, 0.9), n90)
	fmt.Printf("closed loop as measured: %.0f req/s, p50 %.2fus, p90 %.2fus, p99 %.2fus (%d beyond), p999 %.2fus (%d beyond)\n",
		median(rawRPS), quantile(rawLat, 0.5), quantile(rawLat, 0.9),
		quantile(rawLat, 0.99), len(rawLat)-int(math.Ceil(0.99*float64(len(rawLat)))),
		quantile(rawLat, 0.999), len(rawLat)-int(math.Ceil(0.999*float64(len(rawLat)))))
	fmt.Printf("host speed: reference kernel median %.3f ms (nominal %.3f), quartiles %.3f..%.3f over %d samples\n",
		median(sp)/1e6, refNominalNS/1e6, quantile(sortedCopy(sp), 0.25)/1e6, quantile(sortedCopy(sp), 0.75)/1e6, len(sp))
	runtime.GC()
	r.put("heap_live_mb", float64(liveHeapBytes())/(1<<20), "MB")
	runtime.KeepAlive(st)
	return nil
}

// traced is the ledger run: the seed's deterministic pass untraced
// and traced in turn, on fresh stacks, round after round until the
// budget is spent; on fleet-kv each round also serves the pass with
// parallel shards.
func (r *runner) traced() error {
	w := r.w
	var (
		led                               ledger
		cpu, gc, wall, untrNS, steal      int64
		serialNS, parallelNS              int64
		cycles                            uint64
		snaps                             []telemetry.Snapshot // before/after each traced pass
		traces                            []*telemetry.Trace
		stage                             int64
		poolAcq, poolEnt, poolRel, starts int64
		rounds                            int
	)
	for end := now() + int64(r.budget); rounds == 0 || now() < end; rounds++ {
		st, err := r.build(false)
		if err != nil {
			return err
		}
		u := r.detPass(st, w.gen(r.seed), nil)
		untrNS += u.wallNS

		st, err = r.build(false)
		if err != nil {
			return err
		}
		var taps []*tap
		for _, h := range st.hosts() {
			taps = append(taps, attach(h))
		}
		var hook func(int)
		if fs, ok := st.(*fleetStack); ok {
			hook = func(batch int) {
				if batch%64 == 0 {
					traces = append(traces, fs.f.TraceNextRequest())
				}
			}
		}
		snaps = append(snaps, st.registry().Snapshot())
		runtime.GC()
		s0 := procStat()
		c0, g0, l0 := cpuNS(), gcNS(), sumTaps(taps)
		d := r.detPass(st, w.gen(r.seed), hook)
		runtime.GC()
		c1, g1, l1 := cpuNS(), gcNS(), sumTaps(taps)
		steal += busySteal(s0, procStat())
		snaps = append(snaps, st.registry().Snapshot())
		cpu, gc, wall = cpu+c1-c0, gc+g1-g0, wall+d.wallNS
		led = led.add(l1.add(l0, -1), 1)
		cycles += d.cycles
		if d.digest != u.digest || d.cycles != u.cycles {
			r.fail("traced pass %d diverged: digest %x, %d cycles; untraced digest %x, %d cycles",
				rounds, d.digest[:8], d.cycles, u.digest[:8], u.cycles)
		}
		switch s := st.(type) {
		case *bulkStack:
			stage += s.stageNS
		case *coldStack:
			poolAcq, poolEnt, poolRel, starts = poolAcq+s.acquireNS, poolEnt+s.enterNS, poolRel+s.releaseNS, starts+int64(s.starts)
		case *fleetStack:
			st, err := r.build(true)
			if err != nil {
				return err
			}
			parallelNS += r.detPass(st, w.gen(r.seed), nil).wallNS
			serialNS += u.wallNS
		}
	}
	fmt.Printf("%s seed=%d traced passes: %d rounds, %.1f cycles/req\n",
		w.name, r.seed, rounds, float64(cycles)/float64(rounds*w.detN))

	n := float64(rounds * w.detN)
	per := func(x int64) float64 { return float64(x) / n }
	// The layer times are wall-clock intervals, and so is the runtime's
	// GC estimate; host steal inside them is no layer's CPU. Scale them
	// by the passes' CPU share cpu/(cpu+steal), steal counted while the
	// CPUs were busy and spread evenly over whatever ran, so that the
	// ledger adds up to process CPU time.
	f := float64(cpu) / float64(cpu+steal)
	fix := func(ns int64) float64 { return f * per(ns) }
	self := per(cpu) - fix(led.exec) - fix(led.trapNS) - fix(led.hostNS) - fix(gc)
	r.put("ledger.cpu_ns", per(cpu), "ns")
	r.put("ledger.wall_ns", per(wall), "ns")
	r.put("ledger.steal_ns", per(steal), "ns")
	r.put("ledger.trace_overhead", float64(wall)/float64(untrNS)-1, "ratio")
	r.put("machine.exec_ns", fix(led.exec), "ns")
	r.put("machine.ns_per_kcycle", fix(led.exec)*n/(float64(cycles)/1e3), "ns/kcycle")
	r.put("sm.trap_ns", fix(led.trapNS), "ns")
	r.put("sm.traps", float64(led.traps)/n, "count")
	r.put("sm.host_ns", fix(led.hostNS), "ns")
	r.put("sm.host_calls", float64(led.calls)/n, "count")
	r.put("sm.retries", float64(led.retries)/n, "count")
	r.put("runtime.gc_ns", fix(gc), "ns")
	r.put("serve.self_ns", self, "ns")
	fmt.Printf("ledger per request: exec %.0f + trap %.0f + host %.0f + gc %.0f + self %.0f = cpu %.0f ns; wall %.0f ns, steal %.0f ns (CPU share %.3f)\n",
		fix(led.exec), fix(led.trapNS), fix(led.hostNS), fix(gc), self, per(cpu), per(wall), per(steal), f)
	if self < 0 {
		fmt.Printf("ledger: serve.self_ns = %.0f ns < 0: the layer intervals exceed process CPU time (steal the correction missed)\n", self)
	}
	for _, c := range hostCalls {
		x := led.host[c.slot]
		r.put("sm.host."+c.name+".ns", fix(x.ns), "ns")
		r.put("sm.host."+c.name+".calls", float64(x.n)/n, "count")
	}
	for _, c := range trapCalls {
		x := led.trap[c.slot]
		r.put("sm.trap."+c.name+".ns", fix(x.ns), "ns")
		r.put("sm.trap."+c.name+".calls", float64(x.n)/n, "count")
	}

	// Registry deltas over the traced passes.
	var waves, chunks, chunkSum, spills, homes, bytes, blocks float64
	shard := make([]float64, 2)
	for i := 0; i+1 < len(snaps); i += 2 {
		a, b := snaps[i], snaps[i+1]
		d := func(name string) float64 { return float64(b.Counters[name] - a.Counters[name]) }
		waves += d("os.gateway.waves")
		spills += d("fleet.route.spill")
		homes += d("fleet.route.home")
		bytes += d("sm.bulk.bytes")
		blocks += d("machine.block.instrs")
		for s := range shard {
			shard[s] += d(fmt.Sprintf("fleet.shard%d.served", s))
		}
		ha, hb := a.Histograms["os.gateway.chunk.size"], b.Histograms["os.gateway.chunk.size"]
		chunks += float64(hb.Count - ha.Count)
		chunkSum += float64(hb.Sum - ha.Sum)
	}
	r.put("os.gateway.waves", waves/n, "count")
	r.put("os.gateway.chunk_mean", ratio(chunkSum, chunks), "count")
	r.put("fleet.spill_ratio", ratio(spills, spills+homes), "ratio")
	r.put("fleet.shard_skew", ratio(math.Max(shard[0], shard[1]), (shard[0]+shard[1])/2), "ratio")
	r.put("fleet.parallel_speedup", ratio(float64(serialNS), float64(parallelNS)), "x")
	r.put("machine.block_instrs", blocks/n, "count")
	r.put("sm.bulk.bytes", bytes/n, "bytes")
	r.put("os.bulk.stage_ns", per(stage), "ns")
	ps := float64(max(starts, 1))
	r.put("os.pool.acquire_ns", float64(poolAcq)/ps, "ns")
	r.put("os.pool.enter_ns", float64(poolEnt)/ps, "ns")
	r.put("os.pool.release_ns", float64(poolRel)/ps, "ns")
	acq, rel := r.poolAllocs()
	r.put("os.pool.acquire_allocs", acq, "count")
	r.put("os.pool.release_allocs", rel, "count")
	r.putTraces(traces)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// poolAllocs measures the exact heap allocations of Pool.Acquire and
// Pool.Release over a short cold-start sample (zero elsewhere).
func (r *runner) poolAllocs() (acquire, release float64) {
	if r.w.name != "cold-start" {
		return 0, 0
	}
	st, err := buildCold()
	if err != nil {
		r.fail("%v", err)
		return 0, 0
	}
	st.countAllocs = true
	const n = 200
	next := r.w.gen(r.seed)
	var q request
	for i := 0; i < n; i++ {
		next(&q)
		r.total.add(st.start(q.val))
	}
	return float64(st.acquireAllocs) / n, float64(st.releaseAllocs) / n
}

// putTraces reports per-layer self cycles over the sampled request
// traces — a span's duration less the part its children cover — and
// writes the spans out.
func (r *runner) putTraces(traces []*telemetry.Trace) {
	self := map[string]float64{}
	var all [][]telemetry.Span
	for _, t := range traces {
		spans := t.Spans()
		all = append(all, spans)
		for layer, c := range selfCycles(spans) {
			self[layer] += float64(c)
		}
	}
	for _, layer := range traceLayers {
		r.put("trace."+layer+".self_cycles", ratio(self[layer], float64(len(traces))), "cycles")
	}
	if len(all) == 0 {
		return
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: spans:", err)
		return
	}
	b, err := json.Marshal(all)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: spans:", err)
		return
	}
	fmt.Printf("spans: %d sampled request traces written to %s\n", len(all), path)
}

// spansDir is where the traced run writes the sampled request traces,
// relative to the directory it runs in.
const spansDir = ".bench_build/servebench-spans"

// traceLayers are the layers the fleet's request trace names.
var traceLayers = []string{"router", "shard", "gateway", "ring", "worker"}

// selfCycles sums, per layer, each span's cycles not covered by its
// children.
func selfCycles(spans []telemetry.Span) map[string]uint64 {
	kids := map[int][]telemetry.Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]uint64{}
	for _, s := range spans {
		covered, end := uint64(0), s.Begin
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Begin < ks[j].Begin })
		for _, k := range ks {
			b, e := max(k.Begin, end), min(k.End, s.End)
			if e > b {
				covered += e - b
				end = e
			}
		}
		out[s.Layer] += s.End - s.Begin - covered
	}
	return out
}
