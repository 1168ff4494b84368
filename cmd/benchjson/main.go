// Command benchjson is the CI benchmark-regression gate. It has three
// modes:
//
//	benchjson run -out BENCH_PR5.json [-benchtime 0.3s] [-count 3]
//	benchjson compare BASELINE.json NEW.json [-threshold 0.15]
//	benchjson gate -baseline BASELINE.json -out BENCH_PR5.json [-retries 2]
//
// `run` executes the repository's tracked benchmarks (Throughput,
// Dispatch, CloneColdStart, ServeThroughput, GatewayServe, FleetServe)
// via `go test -bench` — keeping the fastest of -count repetitions per
// benchmark — and writes one JSON document with ns/op, ops/sec,
// allocs/op and every custom metric, plus a host-speed calibration (a
// fixed pure-Go workload timed at run time).
//
// `compare` fails (exit 1) when any throughput-relevant number
// regressed more than the threshold against the committed baseline,
// after normalizing by the calibration ratio so a slower CI runner is
// not mistaken for a slower monitor. It also enforces the absolute
// ratio targets that are machine-independent by construction: batched
// ring send/recv must amortize the per-message monitor overhead ≥5×
// (EXPERIMENTS.md E16), a snapshot clone must stay ≥5× cheaper than a
// full measured build (E15), and a 4-shard fleet must beat a 1-shard
// fleet's aggregate throughput by a floor keyed on the runner's cores
// (E19 — shard concurrency is real OS-thread parallelism, so the
// floor is read off the benchmark's own "cpus" metric).
//
// `gate` is what CI runs: a `run` followed by the `compare` checks,
// re-measuring only the suites that look regressed (merging by
// fastest run) up to -retries times before failing. Nanosecond-scale
// benchmarks on shared runners see transient spikes well past any
// sane threshold; a genuine regression survives every retry — its
// floor really is slower — while a noise spike does not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's numbers.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	OpsPerSec   float64            `json:"ops_per_sec"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the JSON document both modes speak.
type File struct {
	Schema        int               `json:"schema"`
	GoVersion     string            `json:"go"`
	CalibrationNs float64           `json:"calibration_ns"`
	Benchmarks    map[string]Result `json:"benchmarks"`
}

// suites lists the tracked benchmarks: package → -bench pattern.
var suites = []struct {
	pkg     string
	pattern string
}{
	{".", "^BenchmarkThroughput$"},
	{".", "^BenchmarkCloneColdStart$"},
	{".", "^BenchmarkServeThroughput$"},
	{".", "^BenchmarkGatewayServe$"},
	{".", "^BenchmarkFleetServe$"},
	{".", "^BenchmarkTelemetryOverhead$"},
	{".", "^BenchmarkBulkThroughput$"},
	{"./internal/sm", "^BenchmarkDispatch$"},
}

// A metric names one number in a benchmark file: a row's metric, or
// the row's ns/op when name is empty.
type metric struct{ row, name string }

// ns names a row's ns/op.
func ns(row string) metric { return metric{row: row} }

// of reads the metric from f; ok is false when the number is missing
// (no such row) or not positive.
func (m metric) of(f File) (v float64, ok bool) {
	r, found := f.Benchmarks[m.row]
	if !found {
		return 0, false
	}
	v = r.NsPerOp
	if m.name != "" {
		v = r.Metrics[m.name]
	}
	return v, v > 0
}

func (m metric) String() string {
	if m.name == "" {
		return m.row
	}
	return m.row + " " + m.name
}

// The file kinds, named by the row-name prefix each one's rows carry:
// `run` and `gate` write go-test benchmark rows, cmd/stress writes
// endurance-soak rows.
const (
	benchRows  = "Benchmark"
	stressRows = "Stress"
)

// check is one machine-independent ratio target: num/den must stay at
// least floor, or at most ceiling when ceiling is set. A check applies
// to every file holding any row of its kind, and there a missing number
// fails it; files of the other kind skip it.
type check struct {
	name     string
	kind     string
	num, den metric
	floor    float64
	ceiling  float64
	// floorByCPUs, when set, replaces floor with the entry indexed by
	// the denominator row's "cpus" metric (the last entry covers every
	// larger count).
	floorByCPUs []float64
}

// checks are the ratio targets compare enforces on the new run, in
// report order. Every floor and ceiling is a regression tripwire set
// well inside the measured steady ratio, not a target.
var checks = []check{
	{name: "ring batching amortization (E16)", kind: benchRows,
		num: ns("BenchmarkServeThroughput/per-message"), den: ns("BenchmarkServeThroughput/batched"), floor: 5},
	{name: "snapshot clone vs full build (E15)", kind: benchRows,
		num: ns("BenchmarkCloneColdStart/full-build"), den: ns("BenchmarkCloneColdStart/clone"), floor: 5},
	// The block-compilation tier (E18), two families of floors.
	//
	//   fast-noblock/fast — the block tier's own contribution on top of
	//   the per-instruction fast path, read from one interleaved row
	//   per kind (BenchmarkThroughput/tiers/<kind>): alternating slices
	//   of the two engines, so host-speed drift cancels from the ratio.
	//   The interleaved ratio measures ~2.2x per kind; floor 1.4.
	//
	//   reference/fast — the whole fast-path stack, a ratio of two rows
	//   that run tens of seconds apart, so the shared host's window
	//   drift of up to ±30% does not cancel. Measured 4-6x across
	//   windows; floor 3, which leaves that margin.
	{name: "block tier over per-instruction fast path, none (E18)", kind: benchRows,
		num: metric{"BenchmarkThroughput/tiers/none", "fast-noblock-ns/kinstr"},
		den: metric{"BenchmarkThroughput/tiers/none", "fast-ns/kinstr"}, floor: 1.4},
	{name: "block tier over per-instruction fast path, sanctum (E18)", kind: benchRows,
		num: metric{"BenchmarkThroughput/tiers/sanctum", "fast-noblock-ns/kinstr"},
		den: metric{"BenchmarkThroughput/tiers/sanctum", "fast-ns/kinstr"}, floor: 1.4},
	{name: "block tier over per-instruction fast path, keystone (E18)", kind: benchRows,
		num: metric{"BenchmarkThroughput/tiers/keystone", "fast-noblock-ns/kinstr"},
		den: metric{"BenchmarkThroughput/tiers/keystone", "fast-ns/kinstr"}, floor: 1.4},
	{name: "full fast path vs reference, none (E18)", kind: benchRows,
		num: ns("BenchmarkThroughput/reference/none"), den: ns("BenchmarkThroughput/fast/none"), floor: 3},
	{name: "full fast path vs reference, sanctum (E18)", kind: benchRows,
		num: ns("BenchmarkThroughput/reference/sanctum"), den: ns("BenchmarkThroughput/fast/sanctum"), floor: 3},
	{name: "full fast path vs reference, keystone (E18)", kind: benchRows,
		num: ns("BenchmarkThroughput/reference/keystone"), den: ns("BenchmarkThroughput/fast/keystone"), floor: 3},
	// Fleet aggregate scaling (E19): fleet shards run on real OS
	// threads, so the achievable scaling is bounded by the harness's
	// GOMAXPROCS, which the benchmark reports as its "cpus" metric. A
	// 4-core runner must show near-linear gains; a 1-core runner can
	// at best break even and only has to stay within routing-overhead
	// distance of the single shard.
	{name: "fleet aggregate scaling (E19)", kind: benchRows,
		num: ns("BenchmarkFleetServe/shards=1"), den: ns("BenchmarkFleetServe/shards=4"),
		floorByCPUs: []float64{0: 0.7, 1: 0.7, 2: 1.2, 3: 1.5, 4: 1.8}},
	// Telemetry overhead (E20, DESIGN.md §13): the telemetry-off half
	// may beat the telemetry-on half by at most ~5%. Both halves come
	// from ONE row — alternating waves inside the same process —
	// because separate benchmark rows drift apart by more than the 5%
	// budget on a shared host.
	{name: "gateway telemetry overhead ≤5% (E20)", kind: benchRows,
		num: metric{"BenchmarkTelemetryOverhead/gateway", "off-ns/req"},
		den: metric{"BenchmarkTelemetryOverhead/gateway", "on-ns/req"}, floor: 0.95},
	{name: "fleet telemetry overhead ≤5% (E20)", kind: benchRows,
		num: metric{"BenchmarkTelemetryOverhead/fleet", "off-ns/req"},
		den: metric{"BenchmarkTelemetryOverhead/fleet", "on-ns/req"}, floor: 0.95},
	// The bulk plane (E21) must move payload at least 5× faster than
	// chunking the same bytes through 64-byte ring messages; both
	// halves come from one interleaved row, and the measured steady
	// ratio is ~20×.
	{name: "bulk zero-copy vs chunked messages (E21)", kind: benchRows,
		num: metric{"BenchmarkBulkThroughput", "bulk-MB/s"},
		den: metric{"BenchmarkBulkThroughput", "chunked-MB/s"}, floor: 5},
	// The endurance soak's tail-latency ceilings (E17).
	{name: "endurance p99 tail (E17)", kind: stressRows,
		num: ns("StressGateway/p99"), den: ns("StressGateway/p50"), ceiling: 8},
	{name: "endurance p999 tail (E17)", kind: stressRows,
		num: ns("StressGateway/p999"), den: ns("StressGateway/p50"), ceiling: 40},
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchjson run -out FILE [-benchtime D] [-count N]")
	fmt.Fprintln(os.Stderr, "       benchjson compare BASELINE.json NEW.json [-threshold F]")
	fmt.Fprintln(os.Stderr, "       benchjson gate -baseline FILE -out FILE [-threshold F] [-retries N]")
	os.Exit(2)
}

// runSuites executes the tracked suites whose index passes keep (nil =
// all), merging results into `into` by fastest run.
func runSuites(benchtime string, count int, keep func(i int) bool, into map[string]Result) error {
	for i, s := range suites {
		if keep != nil && !keep(i) {
			continue
		}
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", s.pattern, "-benchtime", benchtime,
			"-count", strconv.Itoa(count), "-benchmem", s.pkg)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s %q: %w", s.pkg, s.pattern, err)
		}
		parseBench(string(raw), into)
	}
	return nil
}

// suiteOf maps a benchmark name back to its suite index.
func suiteOf(name string) int {
	for i, s := range suites {
		prefix := strings.Trim(strings.SplitN(s.pattern, "/", 2)[0], "^$")
		if name == prefix || strings.HasPrefix(name, prefix+"/") {
			return i
		}
	}
	return -1
}

func writeDoc(doc File, out string) {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	out := fs.String("out", "BENCH_PR5.json", "output JSON path")
	benchtime := fs.String("benchtime", "0.3s", "go test -benchtime value")
	count := fs.Int("count", 3, "go test -count value (fastest run kept)")
	fs.Parse(args)

	doc := File{
		Schema:        1,
		GoVersion:     runtime.Version(),
		CalibrationNs: calibrate(),
		Benchmarks:    map[string]Result{},
	}
	if err := runSuites(*benchtime, *count, nil, doc.Benchmarks); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed")
		os.Exit(1)
	}
	// Calibrate again now that minutes have passed and keep the floor:
	// one calibration samples a single load window, and on a shared
	// host windows drift by ±20% — enough to swamp the regression
	// threshold when the baseline's window and the gate's window
	// disagree. The benchmarks keep their fastest runs, so the
	// calibration must be the matching least-loaded floor (the gate
	// applies the same rule across its retries).
	if cal := calibrate(); cal < doc.CalibrationNs {
		doc.CalibrationNs = cal
	}
	writeDoc(doc, *out)
	names := sortedNames(doc.Benchmarks)
	fmt.Printf("benchjson: %d benchmarks → %s (calibration %.0f ns)\n",
		len(names), *out, doc.CalibrationNs)
	for _, n := range names {
		r := doc.Benchmarks[n]
		fmt.Printf("  %-48s %12.1f ns/op %14.0f ops/s %6.0f allocs/op\n",
			n, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp)
	}
}

// calibrate times a fixed pure-Go workload (xorshift over 1<<26
// words), taking the best of five runs. Its only job is to measure
// relative host speed, so `compare` can tell a slow runner from a slow
// monitor.
func calibrate() float64 {
	best := float64(0)
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 1<<26; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(start).Nanoseconds())
		if x == 0 { // never: defeat dead-code elimination
			fmt.Fprintln(os.Stderr, "")
		}
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// parseBench extracts benchmark lines from `go test -bench` output:
// name, iteration count, then value/unit pairs.
func parseBench(out string, into map[string]Result) {
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		r := Result{Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
				if v > 0 {
					r.OpsPerSec = 1e9 / v
				}
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				r.Metrics[fields[i+1]] = v
			}
		}
		// With -count > 1 the same benchmark repeats; keep the fastest
		// run — the standard way to damp scheduler noise in a gate.
		if prev, seen := into[name]; seen && prev.NsPerOp > 0 && prev.NsPerOp <= r.NsPerOp {
			continue
		}
		into[name] = r
	}
}

// evaluate applies the regression threshold and the ratio targets,
// printing one verdict line per check, and returns the failure
// messages plus the names of the benchmarks that looked regressed
// (for the gate's targeted re-measurement).
func evaluate(base, cur File, threshold float64) (failures, suspects []string) {
	// Normalize by relative host speed: a runner where the calibration
	// workload takes 2× longer is expected to take 2× longer on every
	// benchmark, so only slowdowns beyond that ratio count.
	scale := 1.0
	if base.CalibrationNs > 0 && cur.CalibrationNs > 0 {
		scale = cur.CalibrationNs / base.CalibrationNs
	}
	fmt.Printf("benchjson: host-speed scale %.3f (baseline cal %.0f ns, this run %.0f ns)\n",
		scale, base.CalibrationNs, cur.CalibrationNs)

	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, present := cur.Benchmarks[name]
		if !present {
			failures = append(failures, fmt.Sprintf("%s: missing from this run", name))
			continue
		}
		if b.NsPerOp <= 0 || c.NsPerOp <= 0 {
			continue
		}
		norm := c.NsPerOp / scale
		reg := norm/b.NsPerOp - 1
		verdict := "ok"
		if reg > threshold {
			verdict = "REGRESSED"
			suspects = append(suspects, name)
			failures = append(failures, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f ns/op (%+.0f%% normalized, limit +%.0f%%)",
				name, c.NsPerOp, b.NsPerOp, reg*100, threshold*100))
		}
		fmt.Printf("  %-48s %12.1f → %10.1f ns/op  %+6.1f%%  %s\n",
			name, b.NsPerOp, norm, reg*100, verdict)
	}
	for _, c := range checks {
		if !hasKind(cur, c.kind) {
			continue
		}
		num, okN := c.num.of(cur)
		den, okD := c.den.of(cur)
		if !okN {
			failures = append(failures, fmt.Sprintf("%s: %v missing", c.name, c.num))
		}
		if !okD {
			failures = append(failures, fmt.Sprintf("%s: %v missing", c.name, c.den))
		}
		if !okN || !okD {
			continue
		}
		name, floor := c.name, c.floor
		if c.floorByCPUs != nil {
			cpus := cur.Benchmarks[c.den.row].Metrics["cpus"]
			floor = c.floorByCPUs[min(max(int(cpus), 0), len(c.floorByCPUs)-1)]
			name = fmt.Sprintf("%s, %g cpus)", strings.TrimSuffix(name, ")"), cpus)
		}
		ratio := num / den
		bound, verdict, failure := fmt.Sprintf("target ≥%g×", floor), "ok", ""
		if c.ceiling > 0 {
			bound = fmt.Sprintf("ceiling ≤%g×", c.ceiling)
			if ratio > c.ceiling {
				verdict = "ABOVE CEILING"
				failure = fmt.Sprintf("%s: ratio %.2f× above the %g× ceiling", name, ratio, c.ceiling)
			}
		} else if ratio < floor {
			verdict = "BELOW TARGET"
			failure = fmt.Sprintf("%s: ratio %.2f× below the %g× floor", name, ratio, floor)
		}
		if failure != "" {
			failures = append(failures, failure)
			suspects = append(suspects, c.num.row)
			if c.den.row != c.num.row {
				suspects = append(suspects, c.den.row)
			}
		}
		fmt.Printf("  %-48s %38.2f×  (%s)  %s\n", name, ratio, bound, verdict)
	}
	return failures, suspects
}

// hasKind reports whether f holds any row of the given kind.
func hasKind(f File, kind string) bool {
	for name := range f.Benchmarks {
		if strings.HasPrefix(name, kind) {
			return true
		}
	}
	return false
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.15, "max allowed throughput regression (fraction)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	failures, _ := evaluate(load(fs.Arg(0)), load(fs.Arg(1)), *threshold)
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "\nbenchjson: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchjson: PASS")
}

// cmdGate is the CI entry point: measure, compare, and re-measure only
// the suites that look regressed before deciding. Transient host noise
// on nanosecond benchmarks routinely exceeds any sane threshold; a
// genuine regression survives every retry because its floor really is
// slower, while a noise spike loses to the fastest-run merge.
func cmdGate(args []string) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_BASELINE.json", "committed baseline JSON")
	out := fs.String("out", "BENCH_PR5.json", "output JSON path (uploaded as a CI artifact)")
	benchtime := fs.String("benchtime", "0.3s", "go test -benchtime value")
	count := fs.Int("count", 3, "go test -count value (fastest run kept)")
	threshold := fs.Float64("threshold", 0.15, "max allowed throughput regression (fraction)")
	retries := fs.Int("retries", 2, "targeted re-measurements before failing")
	fs.Parse(args)

	base := load(*baseline)
	doc := File{
		Schema:        1,
		GoVersion:     runtime.Version(),
		CalibrationNs: calibrate(),
		Benchmarks:    map[string]Result{},
	}
	if err := runSuites(*benchtime, *count, nil, doc.Benchmarks); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// Same floor rule as cmdRun: re-sample calibration after the
	// suites so the scale reflects the least-loaded window seen, not
	// whichever window the first sample happened to land in.
	if cal := calibrate(); cal < doc.CalibrationNs {
		doc.CalibrationNs = cal
	}
	var failures []string
	for attempt := 0; ; attempt++ {
		var suspects []string
		failures, suspects = evaluate(base, doc, *threshold)
		if len(failures) == 0 || attempt >= *retries {
			break
		}
		rerun := map[int]bool{}
		for _, name := range suspects {
			if i := suiteOf(name); i >= 0 {
				rerun[i] = true
			}
		}
		if len(rerun) == 0 {
			break // missing benchmarks: a retry cannot help
		}
		fmt.Printf("benchjson: re-measuring %d suite(s) (attempt %d of %d)\n",
			len(rerun), attempt+1, *retries)
		// Re-calibrate too, keeping the fastest sample: the benchmarks
		// keep their fastest runs, so the host-speed scale must be the
		// matching least-loaded floor — a genuinely slow host floors
		// high on both and still scales correctly.
		if cal := calibrate(); cal < doc.CalibrationNs {
			doc.CalibrationNs = cal
		}
		if err := runSuites(*benchtime, *count, func(i int) bool { return rerun[i] }, doc.Benchmarks); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	writeDoc(doc, *out)
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "\nbenchjson: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchjson: PASS")
}

func load(path string) File {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	return f
}

func sortedNames(m map[string]Result) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
