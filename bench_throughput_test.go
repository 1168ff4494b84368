// Execution-engine throughput benchmarks (EXPERIMENTS.md E12): retired
// instructions per host-second on a tight ALU+memory loop, per platform
// kind. These measure host speed of the interpreter fast path; the
// modeled cycle counts are asserted identical to the reference path by
// TestFastSlowEquivalence in internal/hw/machine.
package sanctorum_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// throughputMachine builds a one-purpose machine of the given isolation
// kind running a paged S-mode ALU+memory loop, so the benchmark
// exercises the full hot path: TLB, page walk, L1/L2 and physical
// memory. engine selects "reference" (per-step Decode, scanning TLB
// probe, page-map access per load), "fast-noblock" (the per-instruction
// fast path with the block tier disabled — the pre-§11 engine), or
// "fast" (fast path plus trace-compiled superinstruction blocks).
func throughputMachine(b testing.TB, kind machine.IsolationKind, engine string) *machine.Machine {
	b.Helper()
	cfg := machine.DefaultConfig(kind)
	cfg.DisableFastPath = engine == "reference"
	cfg.DisableBlockEngine = engine == "fast-noblock"
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}

	// Physical pages from region 1 onward: page tables first, then code
	// and data.
	nextPPN := cfg.DRAM.Base(1) >> mem.PageBits
	alloc := func() (uint64, error) {
		p := nextPPN
		nextPPN++
		return p, nil
	}
	builder, err := pt.NewBuilder(m.Mem, alloc)
	if err != nil {
		b.Fatal(err)
	}

	const codeVA, dataVA = uint64(0x10000), uint64(0x20000)
	prog := asm.New().
		Li64(isa.RegS0, dataVA).
		Label("loop").
		I(isa.OpLD, isa.RegT1, isa.RegS0, 0, 0).
		I(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT1, 0).
		I(isa.OpSD, 0, isa.RegS0, isa.RegT2, 8).
		I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
		I(isa.OpXOR, isa.RegT2, isa.RegT2, isa.RegT0, 0).
		J("loop")
	bin, err := prog.Assemble(codeVA)
	if err != nil {
		b.Fatal(err)
	}

	codePPN, _ := alloc()
	dataPPN, _ := alloc()
	if err := builder.Map(codeVA, codePPN<<mem.PageBits, pt.R|pt.X); err != nil {
		b.Fatal(err)
	}
	if err := builder.Map(dataVA, dataPPN<<mem.PageBits, pt.R|pt.W); err != nil {
		b.Fatal(err)
	}
	if err := m.Mem.WriteBytes(codePPN<<mem.PageBits, bin); err != nil {
		b.Fatal(err)
	}

	c := m.Cores[0]
	c.Satp = builder.Root
	c.CPU.Mode = isa.PrivS
	c.CPU.PC = codeVA
	switch kind {
	case machine.IsolationSanctum:
		c.OSRegions = cfg.DRAM.Full()
	case machine.IsolationKeystone:
		if err := c.PMP.Configure(0, pmp.Entry{
			Valid: true, Base: 0, Size: m.Mem.Size(), Perm: pmp.R | pmp.W | pmp.X,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// multiCoreMachine builds an n-core Sanctum machine where every core
// runs its own copy of the tight ALU+memory loop on disjoint pages, so
// aggregate throughput measures the execution engine's multi-hart
// scaling with no guest-level sharing.
func multiCoreMachine(b *testing.B, cores int) *machine.Machine {
	b.Helper()
	cfg := machine.DefaultConfig(machine.IsolationSanctum)
	cfg.Cores = cores
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	nextPPN := cfg.DRAM.Base(1) >> mem.PageBits
	alloc := func() (uint64, error) {
		p := nextPPN
		nextPPN++
		return p, nil
	}
	for i := 0; i < cores; i++ {
		builder, err := pt.NewBuilder(m.Mem, alloc)
		if err != nil {
			b.Fatal(err)
		}
		const codeVA, dataVA = uint64(0x10000), uint64(0x20000)
		prog := asm.New().
			Li64(isa.RegS0, dataVA).
			Label("loop").
			I(isa.OpLD, isa.RegT1, isa.RegS0, 0, 0).
			I(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT1, 0).
			I(isa.OpSD, 0, isa.RegS0, isa.RegT2, 8).
			I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
			I(isa.OpXOR, isa.RegT2, isa.RegT2, isa.RegT0, 0).
			J("loop")
		bin, err := prog.Assemble(codeVA)
		if err != nil {
			b.Fatal(err)
		}
		codePPN, _ := alloc()
		dataPPN, _ := alloc()
		if err := builder.Map(codeVA, codePPN<<mem.PageBits, pt.R|pt.X); err != nil {
			b.Fatal(err)
		}
		if err := builder.Map(dataVA, dataPPN<<mem.PageBits, pt.R|pt.W); err != nil {
			b.Fatal(err)
		}
		if err := m.Mem.WriteBytes(codePPN<<mem.PageBits, bin); err != nil {
			b.Fatal(err)
		}
		c := m.Cores[i]
		c.Satp = builder.Root
		c.CPU.Mode = isa.PrivS
		c.CPU.PC = codeVA
		c.OSRegions = cfg.DRAM.Full()
	}
	return m
}

// BenchmarkMultiCoreThroughput (EXPERIMENTS.md E13) reports aggregate
// retired instructions per host-second with all cores executing
// concurrently under the parallel scheduler, for 1/2/4 simulated
// cores. The hot path is lock-free per core (private TLB, L1, decode
// caches; atomic page table), so aggregate throughput scales with the
// host CPUs available to the goroutines — on a many-core host the
// 4-core aggregate approaches 4x the 1-core number, while a
// single-CPU host timeshares the harts and holds it near 1x. The
// per-core/instr-s metric exposes the concurrency machinery's overhead
// either way.
func BenchmarkMultiCoreThroughput(b *testing.B) {
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			m := multiCoreMachine(b, cores)
			ids := make([]int, cores)
			for i := range ids {
				ids[i] = i
			}
			sched := machine.NewScheduler(m, machine.SchedParallel)
			const batch = 8192
			var retired atomic.Int64
			slices := make([]atomic.Int64, cores)
			b.ResetTimer()
			sched.Drive(ids, func(coreID int) bool {
				res, err := m.Run(coreID, batch)
				if err != nil {
					b.Error(err)
					return false
				}
				retired.Add(int64(res.Steps))
				return slices[coreID].Add(1) < int64(b.N)
			})
			b.StopTimer()
			perSec := float64(retired.Load()) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "instr/s")
			b.ReportMetric(perSec/float64(cores), "per-core/instr-s")
		})
	}
}

// tierSlice is the instructions in one slice of the interleaved
// block-tier measurement.
const tierSlice = 8192 * 20

// interleaveTiers measures the block tier's contribution with the
// interleaved A/B methodology EXPERIMENTS.md E18 reports: after one
// warm-up slice on each engine (compile, heat caches), it runs rounds
// of a tierSlice-instruction slice on the full fast path followed by
// one on the fast path with the block tier disabled, within one
// process, and returns each engine's total time. Host-speed drift
// between measurement windows — on a shared host ±30% across the tens
// of seconds sequential sub-benchmarks span — hits both engines
// equally and cancels from their ratio. A benchmark's timer covers the
// rounds only.
func interleaveTiers(tb testing.TB, kind machine.IsolationKind, rounds int) (fast, noblock time.Duration) {
	mFast := throughputMachine(tb, kind, "fast")
	mNo := throughputMachine(tb, kind, "fast-noblock")
	slice := func(m *machine.Machine) time.Duration {
		s := time.Now()
		if _, err := m.Run(0, tierSlice); err != nil {
			tb.Fatal(err)
		}
		return time.Since(s)
	}
	slice(mFast)
	slice(mNo)
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer()
	}
	for i := 0; i < rounds; i++ {
		fast += slice(mFast)
		noblock += slice(mNo)
	}
	return fast, noblock
}

// TestBlockTierInterleavedRatio logs the block tier's interleaved
// contribution per kind. Report-only (skipped with -short): a perf
// assertion here would flake under parallel CI load; the enforced
// form is cmd/benchjson's floor on BenchmarkThroughput/tiers/<kind>,
// which reads the same interleaved measurement.
func TestBlockTierInterleavedRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement only")
	}
	const rounds = 60
	for _, kind := range []machine.IsolationKind{
		machine.IsolationNone, machine.IsolationSanctum, machine.IsolationKeystone,
	} {
		tBlk, tNo := interleaveTiers(t, kind, rounds)
		per8192 := float64(rounds * tierSlice / 8192)
		t.Logf("%-10s block %8.0f ns/8192  noblock %8.0f ns/8192  block tier %.2fx",
			kind.String(), float64(tBlk.Nanoseconds())/per8192, float64(tNo.Nanoseconds())/per8192,
			float64(tNo)/float64(tBlk))
	}
}

// BenchmarkThroughput reports sustained interpreter throughput
// (instr/s) on the tight loop, for each platform kind, on three
// engines that must be cycle-identical: the reference interpreter,
// the per-instruction fast path with the block tier disabled (the
// pre-§11 engine), and the full fast path with trace-compiled blocks.
// Cycle-exactness is asserted by TestFastSlowEquivalence. The rows
// run one after another, seconds apart, so a ratio of two rows carries
// the host's drift between their windows; that is tolerable for
// reference/fast, the whole fast-path stack at 4-6x, but not for the
// block tier's own ~2x. The tiers/<kind> rows therefore measure
// fast-noblock/fast interleaved (interleaveTiers), reporting the two
// halves as fast-ns/kinstr and fast-noblock-ns/kinstr; one op is one
// round, a slice on each engine.
func BenchmarkThroughput(b *testing.B) {
	for _, engine := range []string{"fast", "fast-noblock", "reference"} {
		for _, kind := range []machine.IsolationKind{
			machine.IsolationNone, machine.IsolationSanctum, machine.IsolationKeystone,
		} {
			b.Run(engine+"/"+kind.String(), func(b *testing.B) {
				m := throughputMachine(b, kind, engine)
				const batch = 8192
				retired := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := m.Run(0, batch)
					if err != nil {
						b.Fatal(err)
					}
					if res.Reason != machine.StopMaxSteps {
						b.Fatalf("unexpected stop: %v (trap %v)", res.Reason, res.Trap)
					}
					retired += res.Steps
				}
				b.StopTimer()
				b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instr/s")
			})
		}
	}
	for _, kind := range []machine.IsolationKind{
		machine.IsolationNone, machine.IsolationSanctum, machine.IsolationKeystone,
	} {
		b.Run("tiers/"+kind.String(), func(b *testing.B) {
			fast, noblock := interleaveTiers(b, kind, b.N)
			kinstr := float64(b.N) * tierSlice / 1000
			b.ReportMetric(float64(fast.Nanoseconds())/kinstr, "fast-ns/kinstr")
			b.ReportMetric(float64(noblock.Nanoseconds())/kinstr, "fast-noblock-ns/kinstr")
		})
	}
}
