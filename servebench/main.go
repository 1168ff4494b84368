// Command servebench is the repository's serving benchmark: a
// closed-loop load generator that drives three workloads through the
// entry points the system's users call and checks every answer, plus
// a traced run that splits each workload's cost into a per-layer
// ledger from outside the program.
//
// Run it from the repository root (the script builds the package into
// .bench_build first):
//
//	bash servebench/run.sh --workload fleet-kv --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end metrics with
// --trace 0, the per-layer ledger with --trace 1. Every metric is also
// printed above it by name with its unit, with host diagnostics.
//
// # Workloads
//
// All three run on the Sanctum platform.
//
//   - fleet-kv (sanctorum.NewFleet, Fleet.Process): a 2-shard fleet
//     serving the ring KV worker in its default configuration (two
//     workers per shard with 64-message rings, the KeyAffinity router,
//     shards served in turn on the caller's goroutine), after one
//     Fleet.Connect(0,1) attested handshake. 128 sessions, one key
//     each, Zipf-ranked (s=1.1); 90% gets, 10% puts of 64-byte
//     messages; 64 requests per admission. It is the only workload
//     that crosses every serving layer (router → shard → gateway →
//     ring → monitor → enclave → response): reads run beside writes,
//     hot sessions skew the shards, and short same-key chunks make the
//     monitor's per-call cost matter.
//   - bulk-kv (Gateway.ProcessBulk): one machine, a bulk gateway of two
//     BulkKVServer workers with a 16-page grant each; 16 keys, 50/50
//     put/get of 512 B–4 KiB values staged through the granted buffer,
//     each key routed to the worker that holds it; 32 requests per
//     admission. This is the data plane: simulated execution dominates
//     and the monitor does little; the ~190 KiB working set overflows
//     the modeled L1 and nearly fills the TLB.
//   - cold-start (Pool.Acquire, System.Enter, Pool.Release): each
//     request forks a clone of a measured StatefulAdder template, runs
//     it once on n, and recycles it (delete, clean the region, grant it
//     again). It exercises the monitor's lifecycle calls, which the
//     serving workloads never make after setup, and bypasses the
//     gateway entirely.
//
// fleet-kv admits no more requests at once than one worker's ring
// holds. Past that, KeyAffinity spills a hot session to a worker that
// keeps its own KV store and later reads of the session come back
// stale — a known defect of the router, which TestFleetSpillServesStaleReads
// pins. The benchmark's workloads are ones on which no operation
// fails, so the defect stays out of the measured runs; RECORD.md
// gives its size.
//
// # Method
//
// The generator takes --seed; the stacks receive only the generated
// requests. One goroutine serves them in a closed loop: it admits a
// fixed number of requests as one call and admits the next as soon as
// the call returns. A run (--trace 0) has three parts:
//
//   - 21 builds of the workload's stack, timed for setup_s;
//   - a deterministic pass: the seed's first requests on a fresh stack,
//     which nothing in it times, so it gives exact counts;
//   - the closed loop for --seconds, in 100 ms windows: the
//     deterministic pass's stack, continuing its stream, and three
//     fresh stacks, each serving the seed's stream from the start,
//     take turns by window after 200 ms of warm-up each. Separately
//     built stacks run a few percent apart even side by side (heap
//     layout, map hash seeds), so the figures do not hang on one.
//
// Every answer is checked against a Go-side model: a KV get must
// return the session's last put, a bulk get the bytes of the key's
// last put, the adder 1000+n. A mismatch or an error counts as failed
// and makes correct false; it never stops the run.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// tens of percent within minutes, more than a regression bound can
// absorb. So every timed interval — each build, each window — lies
// between two samples of a fixed reference kernel (see measure.go)
// that does not touch the system under test, and every time is
// reported scaled to the speed at which the kernel runs its nominal
// time. A host that runs everything slower leaves the scaled figures
// where they were, while a change to the system moves them as it moves
// the raw ones. The raw figures are printed beside the scaled ones.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s (s): median build time, scaled, over the 21 builds: the
//     stack from nothing until it is ready to serve.
//   - req_per_s (1/s): requests answered per second in the closed
//     loop, scaled, as the median over the windows.
//   - p50_us, p90_us (us): latency of an admission, from the call to
//     its last answer, scaled by its window's host speed, as quantiles
//     over every admission of the run.
//   - sim_cycles_per_req (cycles): modeled cycles per request in the
//     deterministic pass, summed over the machines' CycleNow deltas.
//     It repeats exactly for a seed.
//   - allocs_per_req (count): Go heap allocations per request in the
//     deterministic pass, the generator included.
//   - heap_live_mb (MB): live heap after a forced GC at the end of the
//     run, with the deterministic pass's stack still alive (and the
//     reference kernel's 1.3 MiB of buffers).
//
// p99 and p999 are printed with how many admissions lie beyond them,
// as measured, but are not end-to-end metrics: on a shared virtual
// host, hypervisor steal stalls a core for milliseconds at a time, and
// the top percent of samples measures those stalls more than the
// system. The steal share over the run and the reference kernel's
// speed are printed so that a noisy run can be told apart from a slow
// one.
//
// # Traced run (--trace 1)
//
// A separate run of the same workload and seed builds the per-layer
// ledger from outside the program, through two seams the code already
// exposes: OS.SM accepts a client over any smcall.Dispatcher, so a
// wrapper times every monitor call the OS issues; Machine.Firmware
// accepts any machine.Firmware, so a wrapper times every trap the
// monitor handles and, per core, the simulated execution between an
// entry or resume and the next trap. It serves the deterministic pass
// untraced and traced in turn, each on a fresh stack, round after
// round for --seconds, and checks that every traced pass reproduces
// the untraced pass's cycles and response digest bit for bit: the
// wrappers only observe. Per request:
//
//	machine.exec_ns + sm.trap_ns + sm.host_ns + runtime.gc_ns + serve.self_ns = ledger.cpu_ns
//
// ledger.cpu_ns is process CPU time (getrusage), runtime.gc_ns the
// runtime's GC time (runtime/metrics), and serve.self_ns the rest:
// fleet routing, the gateway, the OS scheduler and the generator loop.
// The layer times and the runtime's GC time are wall-clock intervals,
// which on a shared host include time the hypervisor stole. They are
// scaled by the passes' CPU share cpu/(cpu+steal), with steal read
// from /proc/stat per CPU and weighted by how busy each CPU was
// (ledger.steal_ns), so the parts add up to ledger.cpu_ns; the run
// warns if serve.self_ns still comes out negative.
// ledger.trace_overhead compares the traced pass's wall time
// (ledger.wall_ns) with the untraced one's. The ledger's times are not
// scaled to the reference speed.
//
// The rest of the ledger: per-call and per-trap time and counts
// (sm.host.<call>.*, sm.trap.<call>.*; a batched submission is charged
// to its final call), ErrRetry per request (sm.retries), telemetry
// counter deltas (gateway waves and chunk sizes, fleet spill and
// shard skew, block-engine instructions, bulk bytes), the fleet's
// speed-up from serving the same pass with parallel shards
// (fleet.parallel_speedup, serial wall time over parallel), pool call
// times and allocations (cold-start), host time in bulk staging
// (bulk-kv), and per-layer self cycles from a sample of the fleet's
// cycle-stamped request traces, written to .bench_build/servebench-spans.
// Metrics a workload does not reach read zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named value of the result line, with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet-kv, bulk-kv or cold-start")
	seed := flag.Uint64("seed", 1, "seed of the generated requests")
	seconds := flag.Int("seconds", 30, "seconds of measurement")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer ledger")
	flag.Parse()
	w := workloadNamed(*name)
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: servebench --workload fleet-kv|bulk-kv|cold-start --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &runner{
		w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		res: result{Correct: true, Metrics: map[string]metric{}},
	}
	stat0 := procStat()
	var err error
	if *trace == 1 {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Printf("host: GOMAXPROCS=%d nproc=%d go=%s steal=%.2f%% of host CPU time during the run\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), 100*stealShare(stat0, procStat()))
	r.res.Attempted, r.res.Failed = r.total.attempted, r.total.failed()
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	fmt.Printf("answers: %d attempted, %d stale, %d wrong, %d errors (failed ratio %.5f); correct=%v\n",
		r.total.attempted, r.total.stale, r.total.wrong, r.total.errs,
		float64(r.total.failed())/math.Max(1, float64(r.total.attempted)), r.res.Correct)
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
