// Benchmark harness: one benchmark per paper artifact (see
// EXPERIMENTS.md for the index). The paper's evaluation is qualitative
// — state machines, protocols, TCB size — so these benchmarks measure
// the cost of every monitor operation the figures describe, plus the
// ablations DESIGN.md calls out. Absolute numbers are host-dependent;
// the comparisons (who is cheaper, by what factor) are the
// reproduction's results.
package sanctorum_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sanctorum"
	"sanctorum/internal/adversary"
	"sanctorum/internal/asm"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/os"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
)

func mustSystem(b *testing.B, kind sanctorum.Kind, signing [32]byte) *sanctorum.System {
	b.Helper()
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind, SigningMeasurement: signing})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func mustBuild(b *testing.B, sys *sanctorum.System, l enclaves.Layout, prog *asm.Program,
	dataInit []byte, regions []int, sharedPA uint64) *os.BuiltEnclave {
	b.Helper()
	spec, err := enclaves.Spec(l, prog, dataInit, regions,
		[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
	if err != nil {
		b.Fatal(err)
	}
	built, err := sys.BuildEnclave(spec)
	if err != nil {
		b.Fatal(err)
	}
	return built
}

// tryCall issues one monitor call through the unified-ABI client
// without the client's retry loop — the single-shot §V-A transaction.
func tryCall(sys *sanctorum.System, c api.Call, args ...uint64) api.Error {
	return sys.OS.SM.Try(api.OSRequest(c, args...)).Status
}

// --- E1 (Fig 1): SM event routing cost ---

// BenchmarkE1TrapRoundTrip measures one enclave ECALL handled entirely
// by the monitor (get_random): trap entry, authorization, service,
// resume.
func BenchmarkE1TrapRoundTrip(b *testing.B) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone} {
		b.Run(kind.String(), func(b *testing.B) {
			sys := mustSystem(b, kind, [32]byte{})
			l := enclaves.DefaultLayout()
			sharedPA, _ := sys.SetupShared(l.SharedVA)
			regions := sys.OS.FreeRegions()
			built := mustBuild(b, sys, l, enclaves.EcallLoop(l), nil, regions[:1], sharedPA)
			if st := sys.OS.EnterEnclave(0, built.EID, built.TIDs[0]); st != api.OK {
				b.Fatalf("enter: %v", st)
			}
			b.ResetTimer()
			// Each Run step budget covers exactly one ecall iteration
			// (~4 instructions); the enclave loops forever.
			for i := 0; i < b.N; i++ {
				if _, err := sys.Machine.Run(0, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2 (Fig 2): resource state machine ---

// BenchmarkE2RegionLifecycle measures one full block→clean→grant cycle,
// including the region scrub, cache flush and TLB shootdowns. Before
// each cycle, untimed, every line of the region is touched through core
// 0's L1 and the L2, as a guest that used the region leaves them, so
// the clean flushes warm caches: on Keystone it sweeps the shared L2.
func BenchmarkE2RegionLifecycle(b *testing.B) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone} {
		b.Run(kind.String(), func(b *testing.B) {
			sys := mustSystem(b, kind, [32]byte{})
			r := sys.OS.FreeRegions()[0]
			m := sys.Machine
			base, size := m.DRAM.Base(r), m.DRAM.RegionSize()
			line := uint64(1) << m.L2.Config().LineBits
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for pa := base; pa < base+size; pa += line {
					m.Cores[0].L1.Access(pa)
					m.L2.Access(pa)
				}
				b.StartTimer()
				if st := tryCall(sys, api.CallBlockRegion, uint64(r)); st != api.OK {
					b.Fatalf("block: %v", st)
				}
				if st := tryCall(sys, api.CallCleanRegion, uint64(r)); st != api.OK {
					b.Fatalf("clean: %v", st)
				}
				if st := tryCall(sys, api.CallGrantRegion, uint64(r), api.DomainOS); st != api.OK {
					b.Fatalf("grant: %v", st)
				}
			}
		})
	}
}

// --- E3 (Fig 3): enclave lifecycle, swept over enclave size ---

func BenchmarkE3EnclaveLifecycle(b *testing.B) {
	for _, pages := range []int{4, 16, 48} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
			l := enclaves.DefaultLayout()
			sharedPA, _ := sys.SetupShared(l.SharedVA)
			grant := sys.OS.FreeRegions()[:2]
			// A spec with `pages` data pages of initial content.
			spec := &os.EnclaveSpec{
				EvBase: l.EvBase, EvMask: l.EvMask,
				Regions: grant,
				Shared:  []os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}},
			}
			content := make([]byte, mem.PageSize)
			for p := 0; p < pages; p++ {
				spec.Pages = append(spec.Pages, os.EnclavePage{
					VA: l.EvBase + uint64(p)*mem.PageSize, Perms: pt.R | pt.X, Data: content,
				})
			}
			spec.Threads = []os.ThreadSpec{{EntryVA: l.EvBase, StackVA: l.EvBase + 0x800}}
			b.SetBytes(int64(pages) * mem.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				built, err := sys.BuildEnclave(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				teardown(b, sys, built, grant)
				b.StartTimer()
			}
		})
	}
}

// teardown deletes an enclave and restores its resources for the next
// benchmark iteration.
func teardown(b *testing.B, sys *sanctorum.System, built *os.BuiltEnclave, regions []int) {
	b.Helper()
	if st := tryCall(sys, api.CallDeleteEnclave, built.EID); st != api.OK {
		b.Fatalf("delete: %v", st)
	}
	for _, tid := range built.TIDs {
		if st := tryCall(sys, api.CallDeleteThread, tid); st != api.OK {
			b.Fatalf("delete thread: %v", st)
		}
		sys.OS.ReleaseMetaPage(tid)
	}
	sys.OS.ReleaseMetaPage(built.EID)
	for _, region := range regions {
		if st := tryCall(sys, api.CallCleanRegion, uint64(region)); st != api.OK {
			b.Fatalf("clean region %d: %v", region, st)
		}
		if st := tryCall(sys, api.CallGrantRegion, uint64(region), api.DomainOS); st != api.OK {
			b.Fatalf("grant region %d: %v", region, st)
		}
	}
}

// --- E4 (Fig 4): thread scheduling: enter/exit and AEX/resume ---

// BenchmarkE4EnterExit measures a full enclave entry (core clean,
// enclave view programming) plus a voluntary exit (core clean, OS view).
func BenchmarkE4EnterExit(b *testing.B) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone} {
		b.Run(kind.String(), func(b *testing.B) {
			sys := mustSystem(b, kind, [32]byte{})
			l := enclaves.DefaultLayout()
			sharedPA, _ := sys.SetupShared(l.SharedVA)
			regions := sys.OS.FreeRegions()
			built := mustBuild(b, sys, l, enclaves.ExitImmediately(l), nil, regions[:1], sharedPA)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Enter(0, built.EID, built.TIDs[0], 100_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4AEXResume measures a timer-forced AEX plus the subsequent
// re-entry and register-file restoration.
func BenchmarkE4AEXResume(b *testing.B) {
	sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
	l := enclaves.DefaultLayout()
	sharedPA, _ := sys.SetupShared(l.SharedVA)
	regions := sys.OS.FreeRegions()
	built := mustBuild(b, sys, l, enclaves.Counter(l), nil, regions[:1], sharedPA)
	core := sys.Machine.Cores[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := sys.OS.EnterEnclave(0, built.EID, built.TIDs[0]); st != api.OK {
			b.Fatalf("enter: %v", st)
		}
		core.TimerCmp = core.CPU.Cycles + 500
		if _, err := sys.Machine.Run(0, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5 (Fig 5): mailbox round trip ---

func BenchmarkE5MailRoundTrip(b *testing.B) {
	sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
	l := enclaves.DefaultLayout()
	sharedPA, _ := sys.SetupShared(l.SharedVA)
	regions := sys.OS.FreeRegions()
	built := mustBuild(b, sys, l, enclaves.MailReceiver(l),
		enclaves.ReceiverDataInit([32]byte{}), regions[:1], sharedPA)
	msg := []byte("benchmark ping")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Arm (enter), OS send, drain+verify (enter).
		sys.SharedWriteWord(sharedPA, enclaves.ShInput, 0)
		sys.SharedWriteWord(sharedPA, enclaves.ShPeerEID, api.DomainOS)
		if _, err := sys.Enter(0, built.EID, built.TIDs[0], 100_000); err != nil {
			b.Fatal(err)
		}
		if err := sys.OS.SendMail(built.EID, msg); err != nil {
			b.Fatalf("send: %v", err)
		}
		sys.SharedWriteWord(sharedPA, enclaves.ShInput, 1)
		if _, err := sys.Enter(0, built.EID, built.TIDs[0], 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6 (Fig 6): local attestation ---

func BenchmarkE6LocalAttestation(b *testing.B) {
	sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
	lS := enclaves.DefaultLayout()
	lR := enclaves.DefaultLayout()
	lR.SharedVA = 0x50002000
	regions := sys.OS.FreeRegions()
	shSend, _ := sys.SetupShared(lS.SharedVA)
	shRecv, _ := sys.SetupShared(lR.SharedVA)
	msg := make([]byte, api.MailboxSize)
	copy(msg, "bench")
	sendSpec, err := enclaves.Spec(lS, enclaves.MailSender(lS),
		enclaves.SenderDataInit(msg), regions[:1],
		[]os.SharedMapping{{VA: lS.SharedVA, PA: shSend}})
	if err != nil {
		b.Fatal(err)
	}
	expected := os.ExpectedMeasurement(sendSpec)
	recvSpec, _ := enclaves.Spec(lR, enclaves.MailReceiver(lR),
		enclaves.ReceiverDataInit(expected), regions[1:2],
		[]os.SharedMapping{{VA: lR.SharedVA, PA: shRecv}})
	sender, err := sys.BuildEnclave(sendSpec)
	if err != nil {
		b.Fatal(err)
	}
	receiver, err := sys.BuildEnclave(recvSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SharedWriteWord(shRecv, enclaves.ShInput, 0)
		sys.SharedWriteWord(shRecv, enclaves.ShPeerEID, sender.EID)
		sys.Enter(0, receiver.EID, receiver.TIDs[0], 100_000)
		sys.SharedWriteWord(shSend, enclaves.ShPeerEID, receiver.EID)
		sys.Enter(0, sender.EID, sender.TIDs[0], 100_000)
		sys.SharedWriteWord(shRecv, enclaves.ShInput, 1)
		sys.Enter(0, receiver.EID, receiver.TIDs[0], 100_000)
		if v, _ := sys.SharedReadWord(shRecv, enclaves.ShOutput); v != 1 {
			b.Fatalf("attestation verdict %d", v)
		}
	}
}

// --- E7 (Fig 7): remote attestation ---

func BenchmarkE7RemoteAttestation(b *testing.B) {
	lES := enclaves.DefaultLayout()
	lE1 := enclaves.DefaultLayout()
	lE1.SharedVA = 0x50002000
	esTemplate, _ := enclaves.Spec(lES, enclaves.SigningEnclave(lES), nil, nil,
		[]os.SharedMapping{{VA: lES.SharedVA}})
	sys := mustSystem(b, sanctorum.Sanctum, os.ExpectedMeasurement(esTemplate))
	regions := sys.OS.FreeRegions()
	shES, _ := sys.SetupShared(lES.SharedVA)
	shE1, _ := sys.SetupShared(lE1.SharedVA)
	esSpec, _ := enclaves.Spec(lES, enclaves.SigningEnclave(lES), nil, regions[:1],
		[]os.SharedMapping{{VA: lES.SharedVA, PA: shES}})
	e1Spec, _ := enclaves.Spec(lE1, enclaves.AttestedClient(lE1),
		enclaves.ClientDataInit(), regions[1:2],
		[]os.SharedMapping{{VA: lE1.SharedVA, PA: shE1}})
	es, err := sys.BuildEnclave(esSpec)
	if err != nil {
		b.Fatal(err)
	}
	e1, err := sys.BuildEnclave(e1Spec)
	if err != nil {
		b.Fatal(err)
	}
	var nonce [32]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonce[0] = byte(i)
		sys.SharedWriteWord(shES, enclaves.ShInput, 0)
		sys.SharedWriteWord(shES, enclaves.ShPeerEID, e1.EID)
		sys.Enter(0, es.EID, es.TIDs[0], 1_000_000)
		sys.SharedWriteWord(shE1, enclaves.ShInput, 0)
		sys.SharedWriteWord(shE1, enclaves.ShPeerEID, es.EID)
		sys.SharedWrite(shE1+enclaves.ShNonce, nonce[:])
		sys.Enter(0, e1.EID, e1.TIDs[0], 1_000_000)
		sys.SharedWriteWord(shES, enclaves.ShInput, 1)
		sys.Enter(0, es.EID, es.TIDs[0], 1_000_000)
		sys.SharedWriteWord(shE1, enclaves.ShInput, 1)
		sys.SharedWrite(shE1+enclaves.ShPeerKA, make([]byte, 32))
		sys.Enter(0, e1.EID, e1.TIDs[0], 1_000_000)
	}
}

// --- E8 (§VII-A): measurement throughput (the dominant loading cost) ---

func BenchmarkE8MeasurementExtend(b *testing.B) {
	m := sm.NewMeasurement()
	page := make([]byte, mem.PageSize)
	b.SetBytes(mem.PageSize)
	for i := 0; i < b.N; i++ {
		m.ExtendPage(uint64(i)<<12, pt.R, page)
	}
}

// --- E9 (§VII-A/B): the isolation comparison ---

func BenchmarkE9PrimeProbe(b *testing.B) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone} {
		b.Run(kind.String(), func(b *testing.B) {
			sys := mustSystem(b, kind, [32]byte{})
			calib, calibRegion, _, err := adversary.BuildVictim(sys, 0)
			if err != nil {
				b.Fatal(err)
			}
			victim, victimRegion, arrayIdx, err := adversary.BuildVictim(sys, 5)
			if err != nil {
				b.Fatal(err)
			}
			pp, err := adversary.NewPrimeProbe(sys, victimRegion, arrayIdx,
				adversary.PrimeRegionsFor(sys, victimRegion, calibRegion))
			if err != nil {
				b.Fatal(err)
			}
			recovered := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pp.Run(calib.EID, calib.TIDs[0], victim.EID, victim.TIDs[0])
				if err != nil {
					b.Fatal(err)
				}
				if res.Strength >= 50 && res.Guess == 5 {
					recovered++
				}
			}
			b.ReportMetric(float64(recovered)/float64(b.N), "secret-recovery-rate")
		})
	}
}

// --- E11 (§V-A): concurrent transaction throughput ---

func BenchmarkE11ConcurrentRegionOps(b *testing.B) {
	sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
	regions := sys.OS.FreeRegions()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := uint64(regions[i%len(regions)])
			i++
			if tryCall(sys, api.CallBlockRegion, r) == api.OK {
				for tryCall(sys, api.CallCleanRegion, r) != api.OK {
				}
				for tryCall(sys, api.CallGrantRegion, r, api.DomainOS) != api.OK {
				}
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationMeasureGranularity compares per-page measurement
// extension (the paper's design, enabling incremental loading) against
// hashing the whole image at init.
func BenchmarkAblationMeasureGranularity(b *testing.B) {
	const pages = 64
	image := make([]byte, pages*mem.PageSize)
	b.Run("per-page", func(b *testing.B) {
		b.SetBytes(int64(len(image)))
		for i := 0; i < b.N; i++ {
			m := sm.NewMeasurement()
			for p := 0; p < pages; p++ {
				m.ExtendPage(uint64(p)<<12, pt.R, image[p*mem.PageSize:(p+1)*mem.PageSize])
			}
			m.Finalize()
		}
	})
	b.Run("whole-image", func(b *testing.B) {
		b.SetBytes(int64(len(image)))
		for i := 0; i < b.N; i++ {
			m := sm.NewMeasurement()
			m.ExtendPage(0, pt.R, image)
			m.Finalize()
		}
	})
}

// BenchmarkAblationTLBInvalidate compares the selective shootdown used
// on region re-allocation with a full TLB flush.
func BenchmarkAblationTLBInvalidate(b *testing.B) {
	fill := func(t *tlb.TLB) {
		for i := uint64(0); i < 32; i++ {
			t.Insert(tlb.Entry{VPN: i, PPN: i * 16})
		}
	}
	b.Run("selective-shootdown", func(b *testing.B) {
		t := tlb.New(32)
		for i := 0; i < b.N; i++ {
			fill(t)
			t.FlushFrames(256, 256) // the upper half of the frames fill maps
		}
	})
	b.Run("full-flush", func(b *testing.B) {
		t := tlb.New(32)
		for i := 0; i < b.N; i++ {
			fill(t)
			t.Flush()
		}
	})
}

// BenchmarkAblationLockContention contrasts the paper's
// fail-on-concurrency transactions with what blocking callers would
// cost, measured as useful operations completed under contention.
func BenchmarkAblationLockContention(b *testing.B) {
	sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
	r := uint64(sys.OS.FreeRegions()[0])
	b.Run("try-lock-api", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The monitor's calls never block; a failed transaction
			// returns immediately.
			tryCall(sys, api.CallBlockRegion, r)
			tryCall(sys, api.CallCleanRegion, r)
			tryCall(sys, api.CallGrantRegion, r, api.DomainOS)
		}
	})
}

// --- E16: ring serving throughput (DESIGN.md §9) ---

// BenchmarkServeThroughput measures the per-message monitor overhead
// of ring IPC and how batching amortizes it: an OS→OS loopback ring
// carries b.N messages, moved either one per Dispatch pair (send 1,
// recv 1 — the per-message cost every request would pay without
// batching) or api.RingMaxBatch per call. ns/op is ns per message in
// both cases, so the sub-benchmark ratio is the amortization factor
// the CI gate enforces (≥5×).
func BenchmarkServeThroughput(b *testing.B) {
	setup := func(b *testing.B) (*sanctorum.System, uint64, uint64, uint64) {
		sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
		ringID, err := sys.OS.AllocMetaPage()
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.OS.SM.RingCreate(ringID, api.DomainOS, api.DomainOS, api.RingMaxBatch); err != nil {
			b.Fatal(err)
		}
		sendPA, err := sys.OS.AllocPagePA()
		if err != nil {
			b.Fatal(err)
		}
		recvPA, err := sys.OS.AllocPagePA()
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, api.RingMaxBatch*api.RingMsgSize)
		for i := range payload {
			payload[i] = byte(i)
		}
		if err := sys.OS.WriteOwned(sendPA, payload); err != nil {
			b.Fatal(err)
		}
		return sys, ringID, sendPA, recvPA
	}
	b.Run("per-message", func(b *testing.B) {
		sys, ringID, sendPA, recvPA := setup(b)
		send := api.OSRequest(api.CallRingSend, ringID, sendPA, 1)
		recv := api.OSRequest(api.CallRingRecv, ringID, recvPA, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := sys.Monitor.Dispatch(send); resp.Status != api.OK {
				b.Fatal(resp.Status)
			}
			if resp := sys.Monitor.Dispatch(recv); resp.Status != api.OK {
				b.Fatal(resp.Status)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msg/s")
	})
	b.Run("batched", func(b *testing.B) {
		sys, ringID, sendPA, recvPA := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i += api.RingMaxBatch {
			n := api.RingMaxBatch
			if rem := b.N - i; n > rem {
				n = rem
			}
			send := api.OSRequest(api.CallRingSend, ringID, sendPA, uint64(n))
			recv := api.OSRequest(api.CallRingRecv, ringID, recvPA, uint64(n))
			if resp := sys.Monitor.Dispatch(send); resp.Status != api.OK || resp.Values[0] != uint64(n) {
				b.Fatalf("send: %v n=%d", resp.Status, resp.Values[0])
			}
			if resp := sys.Monitor.Dispatch(recv); resp.Status != api.OK || resp.Values[0] != uint64(n) {
				b.Fatalf("recv: %v n=%d", resp.Status, resp.Values[0])
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msg/s")
	})
}

// BenchmarkGatewayServe is the end-to-end serving number for E16: echo
// requests through the full stack — gateway batching, ring sends,
// park/wake, pool-cloned enclave workers under the OS scheduler,
// stamped responses. ns/op is per request; req/s is the headline.
// BenchmarkGatewayServe runs the gateway echo workload twice — with
// the telemetry plane wired (the default) and with it compiled out
// (DisableTelemetry) — as tracked absolute baselines for both modes.
// The ≤5% overhead gate is NOT the ratio of these two rows (separate
// rows drift apart on a shared host); it reads the interleaved
// BenchmarkTelemetryOverhead row below.
func BenchmarkGatewayServe(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"telemetry", false}, {"notelemetry", true}} {
		b.Run(tc.name, func(b *testing.B) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{
				Kind:             sanctorum.Sanctum,
				DisableTelemetry: tc.disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			l := enclaves.DefaultLayout()
			regions := sys.OS.FreeRegions()
			spec, err := enclaves.Spec(l, enclaves.RingEchoServer(l), nil, regions[:1], nil)
			if err != nil {
				b.Fatal(err)
			}
			pool, err := sys.NewPool(spec, regions[1:3], 1)
			if err != nil {
				b.Fatal(err)
			}
			gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
				Workers: 2,
				Sched:   sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
			})
			if err != nil {
				b.Fatal(err)
			}
			const wave = 32
			reqs := make([][]byte, wave)
			for i := range reqs {
				msg := make([]byte, api.RingMsgSize)
				msg[0] = byte(i)
				reqs[i] = msg
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += wave {
				n := wave
				if rem := b.N - i; n > rem {
					n = rem
				}
				if _, err := gw.Process(reqs[:n]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			if err := gw.Close(); err != nil {
				b.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- E19: fleet aggregate serving throughput (DESIGN.md §12) ---

// BenchmarkFleetServe is E19's headline: the same echo workload served
// by a 1-shard and a 4-shard fleet, shards running concurrently (one
// goroutine per machine). ns/op is per request, so the shards=1 /
// shards=4 ns ratio is the aggregate scaling factor the CI gate
// checks. Each sub-benchmark also reports the harness's GOMAXPROCS as
// "cpus": shard concurrency is real OS-thread parallelism, so the
// achievable ratio depends on the host's cores and the gate keys its
// floor on this metric.
// The notelemetry sub-benchmark mirrors shards=1 with the telemetry
// plane compiled out, as a tracked absolute baseline; the ≤5%
// overhead enforcement reads the interleaved
// BenchmarkTelemetryOverhead row instead (see its comment).
func BenchmarkFleetServe(b *testing.B) {
	for _, tc := range []struct {
		name    string
		shards  int
		disable bool
	}{
		{"shards=1", 1, false},
		{"shards=4", 4, false},
		{"notelemetry", 1, true},
	} {
		shards := tc.shards
		b.Run(tc.name, func(b *testing.B) {
			f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
				Kind:   sanctorum.Sanctum,
				Shards: shards,
				Config: sanctorum.FleetConfig{
					Parallel: true,
					Sched:    sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
				},
				DisableTelemetry: tc.disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			wave := 32 * shards
			sessions := 8 * shards
			reqs := make([]sanctorum.FleetRequest, wave)
			for i := range reqs {
				msg := make([]byte, api.RingMsgSize)
				msg[0] = byte(i)
				reqs[i] = sanctorum.FleetRequest{
					Session: uint64(i%sessions) * 0x9E3779B97F4A7C15,
					Payload: msg,
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += wave {
				n := wave
				if rem := b.N - i; n > rem {
					n = rem
				}
				if _, err := f.Process(reqs[:n]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
		})
	}
}

// --- E20: telemetry instrumentation overhead (DESIGN.md §13) ---

// BenchmarkTelemetryOverhead resolves the telemetry plane's cost the
// only way a ≤5% effect survives a shared host: both sides inside ONE
// benchmark. Separate rows run in separate time windows, and
// host-speed drift between windows reaches ±15% — three times the
// effect under test (the same reason E18's block-tier ratio check is
// interleaved). Each iteration serves one wave through a telemetry-on
// stack and the same wave through an identical DisableTelemetry
// stack, alternating, so drift hits both halves equally and cancels
// from the ratio. The halves are reported as "on-ns/req" and
// "off-ns/req" on the single row; the benchjson gate holds
// off/on ≥ 0.95 (instrumentation within 5%). The notelemetry
// sub-benchmarks of BenchmarkGatewayServe / BenchmarkFleetServe stay
// as tracked absolute baselines; enforcement lives here.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("gateway", func(b *testing.B) {
		const wave = 32
		type half struct {
			gw   *os.Gateway
			pool *os.Pool
			reqs [][]byte
		}
		mk := func(disable bool) half {
			sys, err := sanctorum.NewSystem(sanctorum.Options{
				Kind:             sanctorum.Sanctum,
				DisableTelemetry: disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			l := enclaves.DefaultLayout()
			regions := sys.OS.FreeRegions()
			spec, err := enclaves.Spec(l, enclaves.RingEchoServer(l), nil, regions[:1], nil)
			if err != nil {
				b.Fatal(err)
			}
			pool, err := sys.NewPool(spec, regions[1:3], 1)
			if err != nil {
				b.Fatal(err)
			}
			gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
				Workers: 2,
				Sched:   sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
			})
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([][]byte, wave)
			for i := range reqs {
				msg := make([]byte, api.RingMsgSize)
				msg[0] = byte(i)
				reqs[i] = msg
			}
			return half{gw: gw, pool: pool, reqs: reqs}
		}
		on, off := mk(false), mk(true)
		serve := func(h half, n int) time.Duration {
			start := time.Now()
			if _, err := h.gw.Process(h.reqs[:n]); err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		for i := 0; i < 4; i++ { // warm both stacks identically
			serve(on, wave)
			serve(off, wave)
		}
		var tOn, tOff time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i += wave {
			n := wave
			if rem := b.N - i; n > rem {
				n = rem
			}
			tOn += serve(on, n)
			tOff += serve(off, n)
		}
		b.StopTimer()
		b.ReportMetric(float64(tOn.Nanoseconds())/float64(b.N), "on-ns/req")
		b.ReportMetric(float64(tOff.Nanoseconds())/float64(b.N), "off-ns/req")
		for _, h := range []half{on, off} {
			if err := h.gw.Close(); err != nil {
				b.Fatal(err)
			}
			if err := h.pool.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fleet", func(b *testing.B) {
		const wave, sessions = 32, 8
		type half struct {
			f    *sanctorum.Fleet
			reqs []sanctorum.FleetRequest
		}
		mk := func(disable bool) half {
			f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
				Kind:   sanctorum.Sanctum,
				Shards: 1,
				Config: sanctorum.FleetConfig{
					Parallel: true,
					Sched:    sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
				},
				DisableTelemetry: disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]sanctorum.FleetRequest, wave)
			for i := range reqs {
				msg := make([]byte, api.RingMsgSize)
				msg[0] = byte(i)
				reqs[i] = sanctorum.FleetRequest{
					Session: uint64(i%sessions) * 0x9E3779B97F4A7C15,
					Payload: msg,
				}
			}
			return half{f: f, reqs: reqs}
		}
		on, off := mk(false), mk(true)
		defer on.f.Close()
		defer off.f.Close()
		serve := func(h half, n int) time.Duration {
			start := time.Now()
			if _, err := h.f.Process(h.reqs[:n]); err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		for i := 0; i < 4; i++ { // warm both fleets identically
			serve(on, wave)
			serve(off, wave)
		}
		var tOn, tOff time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i += wave {
			n := wave
			if rem := b.N - i; n > rem {
				n = rem
			}
			tOn += serve(on, n)
			tOff += serve(off, n)
		}
		b.StopTimer()
		b.ReportMetric(float64(tOn.Nanoseconds())/float64(b.N), "on-ns/req")
		b.ReportMetric(float64(tOff.Nanoseconds())/float64(b.N), "off-ns/req")
	})
}

// --- E15: snapshot/clone cold start (DESIGN.md §8) ---

// BenchmarkCloneColdStart compares bringing up a request-serving
// worker the two ways: a full measured build (create → grant → tables
// → load + hash every page → init) versus a copy-on-write clone of a
// warmed snapshot template (tables replayed, data pages aliased,
// identity inherited — nothing copied, nothing hashed). Both sides pay
// the same teardown (delete, scrub, re-grant), so the ratio understates
// the fork advantage.
func BenchmarkCloneColdStart(b *testing.B) {
	const pages = 24
	makeSpec := func(l enclaves.Layout, regions []int) *os.EnclaveSpec {
		spec := &os.EnclaveSpec{EvBase: l.EvBase, EvMask: l.EvMask, Regions: regions}
		content := make([]byte, mem.PageSize)
		for p := 0; p < pages; p++ {
			content[0] = byte(p + 1)
			spec.Pages = append(spec.Pages, os.EnclavePage{
				VA: l.EvBase + uint64(p)*mem.PageSize, Perms: pt.R | pt.W,
				Data: append([]byte(nil), content...),
			})
		}
		spec.Threads = []os.ThreadSpec{{EntryVA: l.EvBase, StackVA: l.EvBase + pages*mem.PageSize}}
		return spec
	}
	b.Run("full-build", func(b *testing.B) {
		sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
		l := enclaves.DefaultLayout()
		regions := sys.OS.FreeRegions()
		spec := makeSpec(l, regions[:1])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			built, err := sys.BuildEnclave(spec)
			if err != nil {
				b.Fatal(err)
			}
			teardown(b, sys, built, spec.Regions)
		}
	})
	b.Run("clone", func(b *testing.B) {
		sys := mustSystem(b, sanctorum.Sanctum, [32]byte{})
		l := enclaves.DefaultLayout()
		regions := sys.OS.FreeRegions()
		spec := makeSpec(l, regions[:1])
		pool, err := os.NewPool(sys.OS, spec, regions[1:2], 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := pool.Acquire(0)
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.Release(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
