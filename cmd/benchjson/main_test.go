package main

import (
	"slices"
	"strings"
	"testing"
)

// passing builds a benchmark file on which every check of kind holds.
func passing(kind string) File {
	f := File{Benchmarks: map[string]Result{}}
	for _, c := range checks {
		if c.kind != kind {
			continue
		}
		num, den := 1.0, 1.0
		if c.ceiling == 0 {
			num = 10 // comfortably above every floor
		}
		for _, m := range []struct {
			metric
			v float64
		}{{c.num, num}, {c.den, den}} {
			r, ok := f.Benchmarks[m.row]
			if !ok {
				r = Result{NsPerOp: 1, Metrics: map[string]float64{}}
			}
			if m.name == "" {
				r.NsPerOp = m.v
			} else {
				r.Metrics[m.name] = m.v
			}
			f.Benchmarks[m.row] = r
		}
	}
	return f
}

func TestChecksPassAndSkipOtherKind(t *testing.T) {
	for _, kind := range []string{benchRows, stressRows} {
		f := passing(kind)
		if failures, _ := evaluate(f, f, 0.15); len(failures) != 0 {
			t.Errorf("%s file: %v", kind, failures)
		}
	}
}

func TestMissingNumberFails(t *testing.T) {
	f := passing(benchRows)
	delete(f.Benchmarks, "BenchmarkServeThroughput/batched")
	r := f.Benchmarks["BenchmarkBulkThroughput"]
	delete(r.Metrics, "chunked-MB/s")
	failures, suspects := evaluate(File{}, f, 0.15)
	for _, want := range []string{
		"ring batching amortization (E16): BenchmarkServeThroughput/batched missing",
		"bulk zero-copy vs chunked messages (E21): BenchmarkBulkThroughput chunked-MB/s missing",
	} {
		if !slices.Contains(failures, want) {
			t.Errorf("failures %q lack %q", failures, want)
		}
	}
	if len(suspects) != 0 {
		t.Errorf("a missing number is not worth re-measuring, got suspects %v", suspects)
	}
}

func TestFailingCheckNamesSuspects(t *testing.T) {
	f := passing(benchRows)
	f.Benchmarks["BenchmarkThroughput/tiers/none"].Metrics["fast-noblock-ns/kinstr"] = 1.2
	f.Benchmarks["BenchmarkThroughput/reference/sanctum"] = Result{NsPerOp: 2.5}
	r := f.Benchmarks["BenchmarkTelemetryOverhead/fleet"]
	r.Metrics["off-ns/req"] = 0.9
	failures, suspects := evaluate(File{}, f, 0.15)
	for _, want := range []string{
		"block tier over per-instruction fast path, none (E18): ratio 1.20× below the 1.4× floor",
		"full fast path vs reference, sanctum (E18): ratio 2.50× below the 3× floor",
	} {
		if !slices.Contains(failures, want) {
			t.Errorf("failures %q lack %q", failures, want)
		}
	}
	// A failing ratio of two rows names both; one read off a single
	// interleaved row names that row once.
	wantSuspects := []string{
		"BenchmarkThroughput/tiers/none",
		"BenchmarkThroughput/reference/sanctum", "BenchmarkThroughput/fast/sanctum",
		"BenchmarkTelemetryOverhead/fleet",
	}
	if !slices.Equal(suspects, wantSuspects) {
		t.Errorf("suspects %v, want %v", suspects, wantSuspects)
	}
}

func TestFleetScalingFloorFollowsCPUs(t *testing.T) {
	for _, tc := range []struct {
		cpus  float64
		ratio float64
		pass  bool
	}{{1, 0.71, true}, {1, 0.69, false}, {2, 1.1, false}, {4, 1.79, false}, {8, 1.81, true}} {
		f := passing(benchRows)
		f.Benchmarks["BenchmarkFleetServe/shards=1"] = Result{NsPerOp: tc.ratio}
		f.Benchmarks["BenchmarkFleetServe/shards=4"] = Result{NsPerOp: 1, Metrics: map[string]float64{"cpus": tc.cpus}}
		failures, _ := evaluate(File{}, f, 0.15)
		failed := len(failures) == 1 && strings.HasPrefix(failures[0], "fleet aggregate scaling (E19, ")
		if failed == tc.pass || (tc.pass && len(failures) != 0) {
			t.Errorf("%g cpus, ratio %g: failures %q, want pass=%v", tc.cpus, tc.ratio, failures, tc.pass)
		}
	}
}
