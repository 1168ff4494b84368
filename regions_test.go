package sanctorum_test

import (
	"bytes"
	"errors"
	"testing"

	"sanctorum"
	"sanctorum/internal/asm"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// TestRunningEnclaveLosesBlockedRegion: an enclave that blocks one of
// its regions loses hardware access to it at once, not at its next
// entry. Enclave E owns regions A and B with pages in both; in one
// slice it blocks B (the call returns OK) and keeps running. The OS
// then cleans B and builds enclave F there, whose data page holds a
// secret. In E's next slice — same entry, no exit in between — E loads
// its old virtual address in B, which now maps F's secret page: the
// load must trap to the OS, and the secret must never reach E.
func TestRunningEnclaveLosesBlockedRegion(t *testing.T) {
	for _, pk := range allKinds[:2] {
		t.Run(pk.name, func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: pk.kind})
			if err != nil {
				t.Fatal(err)
			}
			regions := sys.OS.FreeRegions()
			a, b := regions[0], regions[1]
			l := enclaves.DefaultLayout()
			ppr := int(sys.Machine.DRAM.PagesPerRegion())

			// E's region A holds its three page tables, its code page
			// and ppr-4 fillers, so its next five pages are B's frames
			// 0..4. F, built alone in B, puts its three tables, its code
			// and then its secret data page in those frames, so E's fifth
			// page in B is F's secret.
			secret := bytes.Repeat([]byte{0x5E}, mem.PageSize)
			stolenVA := l.EvBase + uint64(ppr+1)*mem.PageSize
			prog := asm.New().
				Li(isa.RegA0, int32(b)).
				Li(isa.RegA7, int32(api.CallBlockRegion)).
				Ecall().
				Mv(isa.RegS0, isa.RegA0). // block_region's status
				Li(isa.RegT0, 1000).
				Label("spin").
				I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, -1).
				Branch(isa.OpBNE, isa.RegT0, 0, "spin").
				Li64(isa.RegS1, stolenVA).
				I(isa.OpLD, isa.RegA0, isa.RegS1, 0, 0).
				Li(isa.RegA7, int32(api.CallExitEnclave)).
				Ecall()
			code, err := prog.Assemble(l.CodeVA)
			if err != nil {
				t.Fatal(err)
			}
			spec := &os.EnclaveSpec{
				EvBase: l.EvBase, EvMask: l.EvMask, Regions: []int{a, b},
				Pages:   []os.EnclavePage{{VA: l.CodeVA, Perms: pt.R | pt.X, Data: code}},
				Threads: []os.ThreadSpec{{EntryVA: l.CodeVA, StackVA: l.SP()}},
			}
			for i := 1; i < ppr+2; i++ {
				spec.Pages = append(spec.Pages, os.EnclavePage{VA: l.EvBase + uint64(i)*mem.PageSize, Perms: pt.R | pt.W})
			}
			e, err := sys.BuildEnclave(spec)
			if err != nil {
				t.Fatal(err)
			}

			res, err := sys.Enter(0, e.EID, e.TIDs[0], 200)
			if err != nil || res.Reason != machine.StopMaxSteps {
				t.Fatalf("first slice: %+v, %v; want the step budget spent", res, err)
			}
			if st := api.Error(sys.Machine.Cores[0].CPU.Regs[isa.RegS0]); st != api.OK {
				t.Fatalf("enclave's block_region(%d): %v", b, st)
			}

			if err := sys.OS.SM.CleanRegion(b); err != nil {
				t.Fatal(err)
			}
			f, err := sys.BuildEnclave(&os.EnclaveSpec{
				EvBase: l.EvBase, EvMask: l.EvMask, Regions: []int{b},
				Pages: []os.EnclavePage{
					{VA: l.CodeVA, Perms: pt.R | pt.X, Data: secret},
					{VA: l.DataVA, Perms: pt.R | pt.W, Data: secret},
				},
				Threads: []os.ThreadSpec{{EntryVA: l.CodeVA, StackVA: l.SP()}},
			})
			if err != nil {
				t.Fatal(err)
			}
			stolenPA := sys.Machine.DRAM.Base(b) + 4*mem.PageSize
			if st, owner, _ := sys.OS.SM.RegionInfo(b); st != api.RegionOwned || owner != f.EID {
				t.Fatalf("region %d after F's build: %v/%#x", b, st, owner)
			}
			if got, _ := sys.Machine.Mem.Load(stolenPA, 8); got != 0x5E5E5E5E5E5E5E5E {
				t.Fatalf("F's secret is not where E's old page was: %#x", got)
			}

			res, err = sys.Resume(0, 100_000)
			if err != nil {
				t.Fatal(err)
			}
			if a0 := sys.Machine.Cores[0].CPU.Regs[isa.RegA0]; a0 == 0x5E5E5E5E5E5E5E5E {
				t.Fatal("a running enclave read another enclave's secret through a region it had blocked")
			}
			if res.Reason != machine.StopReturnToOS || res.Trap == nil || res.Trap.Cause != isa.CauseLoadAccess ||
				res.Trap.Value != stolenVA {
				t.Fatalf("second slice: %+v (trap %+v), want a load access fault at %#x", res, res.Trap, stolenVA)
			}
			if err := sys.Monitor.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeystoneRefusesInexpressibleRegionChange builds one-region
// enclaves on Keystone until a grant is refused: a core's PMP denies
// each region the OS does not own with one entry, next to the
// catch-all, so the OS view runs out of entries. The monitor must
// refuse that grant with no_resources before changing anything, and
// every enclave built before it must stay out of the OS's reach.
func TestKeystoneRefusesInexpressibleRegionChange(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Keystone})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	var built []int
	refused := -1
	for _, r := range sys.OS.FreeRegions()[:pmp.NumEntries] {
		spec, err := enclaves.Spec(l, enclaves.Adder(l), []byte("secret!"), []int{r}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.BuildEnclave(spec)
		if errors.Is(err, api.ErrNoResources) {
			refused = r
			break
		}
		if err != nil {
			t.Fatalf("building in region %d: %v", r, err)
		}
		built = append(built, r)
	}
	for _, r := range built {
		for _, c := range sys.Machine.Cores {
			if _, err := c.LoadAs(isa.PrivS, sys.Machine.DRAM.Base(r)+3*mem.PageSize, 8); err == nil {
				t.Fatalf("core %d read enclave region %d from S-mode", c.ID, r)
			}
		}
	}
	if refused < 0 {
		t.Fatalf("all %d grants succeeded: the OS view needs more PMP entries than the unit has", len(built))
	}
	if st, owner, err := sys.OS.SM.RegionInfo(refused); err != nil || st != api.RegionOwned || owner != api.DomainOS {
		t.Fatalf("refused region %d: %v/%#x (%v), want OS-owned", refused, st, owner, err)
	}
	if err := sys.Monitor.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
