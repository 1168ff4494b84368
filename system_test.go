package sanctorum_test

import (
	"bytes"
	"crypto/rand"
	"testing"

	"sanctorum"
	"sanctorum/internal/attest"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

var allKinds = []struct {
	name string
	kind sanctorum.Kind
}{
	{"sanctum", sanctorum.Sanctum},
	{"keystone", sanctorum.Keystone},
	{"baseline", sanctorum.Baseline},
}

func TestQuickstartAdderAllPlatforms(t *testing.T) {
	for _, pk := range allKinds {
		t.Run(pk.name, func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: pk.kind})
			if err != nil {
				t.Fatal(err)
			}
			l := enclaves.DefaultLayout()
			sharedPA, err := sys.SetupShared(l.SharedVA)
			if err != nil {
				t.Fatal(err)
			}
			regions := sys.OS.FreeRegions()
			spec, err := enclaves.Spec(l, enclaves.Adder(l), nil, regions[:1],
				[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
			if err != nil {
				t.Fatal(err)
			}
			built, err := sys.BuildEnclave(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SharedWriteWord(sharedPA, enclaves.ShInput, 10); err != nil {
				t.Fatal(err)
			}
			res, err := sys.Enter(0, built.EID, built.TIDs[0], 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reason.String() != "return-to-os" {
				t.Fatalf("stop reason: %+v", res)
			}
			// The enclave's chosen exit status is delivered in a0.
			if got := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); got != 0x42 {
				t.Fatalf("exit status = %#x", got)
			}
			sum, err := sys.SharedReadWord(sharedPA, enclaves.ShOutput)
			if err != nil {
				t.Fatal(err)
			}
			if sum != 55 {
				t.Fatalf("sum = %d, want 55", sum)
			}
			// The core is clean: no enclave mode, registers scrubbed
			// except the sanctioned a0.
			c := sys.Machine.Cores[0]
			if c.EnclaveMode {
				t.Fatal("core left in enclave mode")
			}
			for r := 1; r < isa.NumRegs; r++ {
				if r != isa.RegA0 && c.CPU.Regs[r] != 0 {
					t.Fatalf("register x%d leaked %#x to the OS", r, c.CPU.Regs[r])
				}
			}
		})
	}
}

func TestMeasurementMatchesVerifierReplay(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	sharedPA, _ := sys.SetupShared(l.SharedVA)
	regions := sys.OS.FreeRegions()
	spec, err := enclaves.Spec(l, enclaves.Adder(l), []byte{1, 2, 3}, regions[:1],
		[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
	if err != nil {
		t.Fatal(err)
	}
	built, err := sys.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if built.Measurement != os.ExpectedMeasurement(spec) {
		t.Fatal("monitor measurement does not match the verifier's transcript replay")
	}
	// The replay is placement-independent: a second build of the same
	// spec into different regions measures identically.
	spec2 := *spec
	spec2.Regions = regions[1:2]
	built2, err := sys.BuildEnclave(&spec2)
	if err != nil {
		t.Fatal(err)
	}
	if built2.Measurement != built.Measurement {
		t.Fatal("physical placement leaked into the measurement")
	}
}

func TestAEXAndResume(t *testing.T) {
	for _, pk := range allKinds[:2] { // sanctum + keystone
		t.Run(pk.name, func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: pk.kind})
			if err != nil {
				t.Fatal(err)
			}
			l := enclaves.DefaultLayout()
			sharedPA, _ := sys.SetupShared(l.SharedVA)
			regions := sys.OS.FreeRegions()
			spec, err := enclaves.Spec(l, enclaves.Counter(l), nil, regions[:1],
				[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
			if err != nil {
				t.Fatal(err)
			}
			built, err := sys.BuildEnclave(spec)
			if err != nil {
				t.Fatal(err)
			}
			// First slice: de-schedule via the core timer.
			if st := sys.OS.EnterEnclave(0, built.EID, built.TIDs[0]); st != api.OK {
				t.Fatalf("enter: %v", st)
			}
			core := sys.Machine.Cores[0]
			core.TimerCmp = core.CPU.Cycles + 3000
			res, err := sys.Machine.Run(0, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trap == nil || !res.Trap.Cause.IsInterrupt() {
				t.Fatalf("expected interrupt delegation, got %+v", res)
			}
			c1, _ := sys.SharedReadWord(sharedPA, enclaves.ShCounter)
			if c1 == 0 {
				t.Fatal("counter never ran")
			}
			// Registers must not leak enclave state to the OS on AEX.
			for r := 1; r < isa.NumRegs; r++ {
				if core.CPU.Regs[r] != 0 {
					t.Fatalf("x%d leaked %#x across AEX", r, core.CPU.Regs[r])
				}
			}
			// Second slice, short: a restarted counter could not reach
			// c1 again, so progress proves the AEX context resumed.
			if st := sys.OS.EnterEnclave(0, built.EID, built.TIDs[0]); st != api.OK {
				t.Fatalf("re-enter: %v", st)
			}
			core.TimerCmp = core.CPU.Cycles + 1500
			if _, err := sys.Machine.Run(0, int(c1)); err != nil {
				t.Fatal(err)
			}
			c2, _ := sys.SharedReadWord(sharedPA, enclaves.ShCounter)
			if c2 <= c1 {
				t.Fatalf("counter did not resume: %d -> %d", c1, c2)
			}
		})
	}
}

func TestOSCannotTouchEnclaveOrMonitorMemory(t *testing.T) {
	for _, pk := range allKinds[:2] {
		t.Run(pk.name, func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: pk.kind})
			if err != nil {
				t.Fatal(err)
			}
			l := enclaves.DefaultLayout()
			sharedPA, _ := sys.SetupShared(l.SharedVA)
			regions := sys.OS.FreeRegions()
			encRegion := regions[0]
			spec, _ := enclaves.Spec(l, enclaves.Adder(l), []byte("secret!"), regions[:1],
				[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
			if _, err := sys.BuildEnclave(spec); err != nil {
				t.Fatal(err)
			}
			core := sys.Machine.Cores[1]
			encBase := sys.Machine.DRAM.Base(encRegion)
			if _, err := core.LoadAs(isa.PrivS, encBase, 8); err == nil {
				t.Fatal("OS read enclave memory")
			}
			if err := core.StoreAs(isa.PrivS, encBase, 8, 0xBAD); err == nil {
				t.Fatal("OS wrote enclave memory")
			}
			metaBase := sys.Machine.DRAM.Base(sys.MetaRegion)
			if _, err := core.LoadAs(isa.PrivS, metaBase, 8); err == nil {
				t.Fatal("OS read monitor metadata")
			}
			smBase := sys.Machine.DRAM.Base(sys.SMRegion)
			if _, err := core.LoadAs(isa.PrivS, smBase, 8); err == nil {
				t.Fatal("OS read monitor memory")
			}
			// DMA is confined to OS memory in every mode.
			if err := sys.Machine.DMATransfer(encBase, sharedPA, 64); err == nil {
				t.Fatal("DMA read enclave memory")
			}
			if err := sys.Machine.DMATransfer(sharedPA, encBase, 64); err == nil {
				t.Fatal("DMA wrote enclave memory")
			}
			if err := sys.Machine.DMATransfer(sharedPA, sharedPA+128, 64); err != nil {
				t.Fatalf("benign DMA denied: %v", err)
			}
		})
	}
}

func TestBaselinePlatformIsInsecure(t *testing.T) {
	// The control experiment: with no isolation primitive, the same
	// monitor logic cannot stop the OS — the paper's §IV-B requirements
	// are load-bearing.
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	sharedPA, _ := sys.SetupShared(l.SharedVA)
	regions := sys.OS.FreeRegions()
	spec, _ := enclaves.Spec(l, enclaves.Adder(l), []byte("secret!"), regions[:1],
		[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
	if _, err := sys.BuildEnclave(spec); err != nil {
		t.Fatal(err)
	}
	encBase := sys.Machine.DRAM.Base(regions[0])
	if _, err := sys.Machine.Cores[1].LoadAs(isa.PrivS, encBase, 8); err != nil {
		t.Fatalf("baseline unexpectedly blocked the OS: %v", err)
	}
}

func TestLocalAttestation(t *testing.T) {
	// Fig 6 end to end: E2 (receiver) attests E1 (sender) via the
	// monitor's measurement-stamped mailboxes.
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	lSend := enclaves.DefaultLayout()
	lRecv := enclaves.DefaultLayout()
	lRecv.SharedVA = 0x50002000
	regions := sys.OS.FreeRegions()

	sharedSendPA, _ := sys.SetupShared(lSend.SharedVA)
	sharedRecvPA, _ := sys.SetupShared(lRecv.SharedVA)

	msg := make([]byte, api.MailboxSize)
	copy(msg, "greetings from E1")
	sendSpec, err := enclaves.Spec(lSend, enclaves.MailSender(lSend),
		enclaves.SenderDataInit(msg), regions[:1],
		[]os.SharedMapping{{VA: lSend.SharedVA, PA: sharedSendPA}})
	if err != nil {
		t.Fatal(err)
	}
	expectedSender := os.ExpectedMeasurement(sendSpec)

	recvSpec, err := enclaves.Spec(lRecv, enclaves.MailReceiver(lRecv),
		enclaves.ReceiverDataInit(expectedSender), regions[1:2],
		[]os.SharedMapping{{VA: lRecv.SharedVA, PA: sharedRecvPA}})
	if err != nil {
		t.Fatal(err)
	}

	sender, err := sys.BuildEnclave(sendSpec)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := sys.BuildEnclave(recvSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sender.Measurement != expectedSender {
		t.Fatal("sender measurement mismatch")
	}

	// Step 1: receiver arms its mailbox for the sender.
	sys.SharedWriteWord(sharedRecvPA, enclaves.ShInput, 0)
	sys.SharedWriteWord(sharedRecvPA, enclaves.ShPeerEID, sender.EID)
	if _, err := sys.Enter(0, receiver.EID, receiver.TIDs[0], 100_000); err != nil {
		t.Fatal(err)
	}
	if st := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); st != 0 {
		t.Fatalf("accept_mail failed: %v", api.Error(st))
	}
	// Step 2: sender mails its message.
	sys.SharedWriteWord(sharedSendPA, enclaves.ShPeerEID, receiver.EID)
	if _, err := sys.Enter(0, sender.EID, sender.TIDs[0], 100_000); err != nil {
		t.Fatal(err)
	}
	if st := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); st != 0 {
		t.Fatalf("send_mail failed: %v", api.Error(st))
	}
	// Steps 3-4: receiver drains and validates the measurement.
	sys.SharedWriteWord(sharedRecvPA, enclaves.ShInput, 1)
	if _, err := sys.Enter(0, receiver.EID, receiver.TIDs[0], 100_000); err != nil {
		t.Fatal(err)
	}
	verdict, _ := sys.SharedReadWord(sharedRecvPA, enclaves.ShOutput)
	if verdict != 1 {
		t.Fatalf("verdict = %d, want authentic (1)", verdict)
	}
}

func TestLocalAttestationDetectsImpostor(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	lSend := enclaves.DefaultLayout()
	lRecv := enclaves.DefaultLayout()
	lRecv.SharedVA = 0x50002000
	regions := sys.OS.FreeRegions()
	sharedSendPA, _ := sys.SetupShared(lSend.SharedVA)
	sharedRecvPA, _ := sys.SetupShared(lRecv.SharedVA)

	genuineMsg := make([]byte, api.MailboxSize)
	copy(genuineMsg, "genuine")
	genuineSpec, _ := enclaves.Spec(lSend, enclaves.MailSender(lSend),
		enclaves.SenderDataInit(genuineMsg), regions[:1],
		[]os.SharedMapping{{VA: lSend.SharedVA, PA: sharedSendPA}})
	expected := os.ExpectedMeasurement(genuineSpec)

	// The impostor runs the same code but different (attacker-chosen)
	// initial data: its measurement necessarily differs.
	impostorMsg := make([]byte, api.MailboxSize)
	copy(impostorMsg, "impostor")
	impostorSpec, _ := enclaves.Spec(lSend, enclaves.MailSender(lSend),
		enclaves.SenderDataInit(impostorMsg), regions[:1],
		[]os.SharedMapping{{VA: lSend.SharedVA, PA: sharedSendPA}})

	recvSpec, _ := enclaves.Spec(lRecv, enclaves.MailReceiver(lRecv),
		enclaves.ReceiverDataInit(expected), regions[1:2],
		[]os.SharedMapping{{VA: lRecv.SharedVA, PA: sharedRecvPA}})

	impostor, err := sys.BuildEnclave(impostorSpec)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := sys.BuildEnclave(recvSpec)
	if err != nil {
		t.Fatal(err)
	}

	sys.SharedWriteWord(sharedRecvPA, enclaves.ShInput, 0)
	sys.SharedWriteWord(sharedRecvPA, enclaves.ShPeerEID, impostor.EID)
	sys.Enter(0, receiver.EID, receiver.TIDs[0], 100_000)
	sys.SharedWriteWord(sharedSendPA, enclaves.ShPeerEID, receiver.EID)
	sys.Enter(0, impostor.EID, impostor.TIDs[0], 100_000)
	sys.SharedWriteWord(sharedRecvPA, enclaves.ShInput, 1)
	sys.Enter(0, receiver.EID, receiver.TIDs[0], 100_000)
	verdict, _ := sys.SharedReadWord(sharedRecvPA, enclaves.ShOutput)
	if verdict != 2 {
		t.Fatalf("verdict = %d, want mismatch (2): the monitor stamped the impostor's true measurement", verdict)
	}
}

func TestRemoteAttestation(t *testing.T) {
	// Fig 7 end to end, with a real remote verifier.
	lES := enclaves.DefaultLayout()
	lE1 := enclaves.DefaultLayout()
	lE1.SharedVA = 0x50002000

	// The signing enclave's measurement is hard-coded into the monitor
	// at boot; compute it from the spec template (placement-free).
	esTemplate, err := enclaves.Spec(lES, enclaves.SigningEnclave(lES), nil, nil,
		[]os.SharedMapping{{VA: lES.SharedVA}})
	if err != nil {
		t.Fatal(err)
	}
	signingMeas := os.ExpectedMeasurement(esTemplate)

	sys, err := sanctorum.NewSystem(sanctorum.Options{
		Kind:               sanctorum.Sanctum,
		SigningMeasurement: signingMeas,
	})
	if err != nil {
		t.Fatal(err)
	}
	regions := sys.OS.FreeRegions()
	sharedESPA, _ := sys.SetupShared(lES.SharedVA)
	sharedE1PA, _ := sys.SetupShared(lE1.SharedVA)

	esSpec, _ := enclaves.Spec(lES, enclaves.SigningEnclave(lES), nil, regions[:1],
		[]os.SharedMapping{{VA: lES.SharedVA, PA: sharedESPA}})
	e1Spec, _ := enclaves.Spec(lE1, enclaves.AttestedClient(lE1),
		enclaves.ClientDataInit(), regions[1:2],
		[]os.SharedMapping{{VA: lE1.SharedVA, PA: sharedE1PA}})
	expectedE1 := os.ExpectedMeasurement(e1Spec)

	es, err := sys.BuildEnclave(esSpec)
	if err != nil {
		t.Fatal(err)
	}
	if es.Measurement != signingMeas {
		t.Fatal("signing enclave measurement drifted from the boot-time constant")
	}
	e1, err := sys.BuildEnclave(e1Spec)
	if err != nil {
		t.Fatal(err)
	}

	// Remote verifier state: key agreement + nonce (Fig 7 steps 1-2).
	verifierKA, err := attest.NewKeyAgreement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var nonce [attest.NonceSize]byte
	rand.Read(nonce[:])

	// OS transports public values and schedules everything.
	sys.SharedWriteWord(sharedESPA, enclaves.ShInput, 0)
	sys.SharedWriteWord(sharedESPA, enclaves.ShPeerEID, e1.EID)
	if _, err := sys.Enter(0, es.EID, es.TIDs[0], 1_000_000); err != nil {
		t.Fatal(err)
	}
	if st := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); st != 0 {
		t.Fatalf("ES accept_mail: %v", api.Error(st))
	}

	sys.SharedWriteWord(sharedE1PA, enclaves.ShInput, 0)
	sys.SharedWriteWord(sharedE1PA, enclaves.ShPeerEID, es.EID)
	sys.SharedWrite(sharedE1PA+enclaves.ShNonce, nonce[:])
	if _, err := sys.Enter(0, e1.EID, e1.TIDs[0], 1_000_000); err != nil {
		t.Fatal(err)
	}
	if st := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); st != 0 {
		t.Fatalf("E1 phase 0: %v", api.Error(st))
	}

	sys.SharedWriteWord(sharedESPA, enclaves.ShInput, 1)
	if _, err := sys.Enter(0, es.EID, es.TIDs[0], 1_000_000); err != nil {
		t.Fatal(err)
	}
	if st := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); st != 0 {
		t.Fatalf("ES phase 1: %v", api.Error(st))
	}

	sys.SharedWriteWord(sharedE1PA, enclaves.ShInput, 1)
	sys.SharedWrite(sharedE1PA+enclaves.ShPeerKA, verifierKA.Share())
	if _, err := sys.Enter(0, e1.EID, e1.TIDs[0], 1_000_000); err != nil {
		t.Fatal(err)
	}
	if st := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); st != 0 {
		t.Fatalf("E1 phase 1: %v", api.Error(st))
	}

	// The verifier receives the evidence over the untrusted channel
	// (Fig 7 step 8) and verifies it (step 9).
	share, _ := sys.SharedRead(sharedE1PA+enclaves.ShShare, 32)
	sig, _ := sys.SharedRead(sharedE1PA+enclaves.ShSig, 64)
	chain, st := sys.Monitor.GetField(api.FieldCertChain)
	if st != api.OK {
		t.Fatalf("get_field: %v", st)
	}
	ev := &attest.Evidence{
		EnclaveMeasurement: expectedE1,
		Nonce:              nonce,
		KAShare:            share,
		Signature:          sig,
		CertChain:          chain,
	}
	monitorMeas := sys.Monitor.Identity().Measurement
	pol := attest.Policy{
		TrustedRoot:     sys.TrustedRoot(),
		ExpectedEnclave: expectedE1,
		AcceptMonitor:   func(m []byte) bool { return bytes.Equal(m, monitorMeas[:]) },
	}
	if err := attest.Verify(ev, nonce, pol); err != nil {
		t.Fatalf("remote attestation rejected: %v", err)
	}

	// Step 10: the session key authenticates subsequent traffic.
	sessionKey, err := verifierKA.SessionKey(share)
	if err != nil {
		t.Fatal(err)
	}
	macBytes, _ := sys.SharedRead(sharedE1PA+enclaves.ShMACOut, 32)
	var tag [32]byte
	copy(tag[:], macBytes)
	if !attest.Open(sessionKey, enclaves.SessionPlaintext, tag) {
		t.Fatal("enclave did not derive the same session key as the verifier")
	}

	// Negative: a replayed nonce fails.
	var otherNonce [attest.NonceSize]byte
	rand.Read(otherNonce[:])
	if err := attest.Verify(ev, otherNonce, pol); err == nil {
		t.Fatal("stale evidence accepted under a fresh nonce")
	}
}

func TestEnclavePageFaultDeliveredAndAEXFallback(t *testing.T) {
	// An enclave touching an unmapped VA takes an AEX (no handler
	// registered) and the OS sees the fault — without gaining access to
	// enclave state.
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	sharedPA, _ := sys.SetupShared(l.SharedVA)
	regions := sys.OS.FreeRegions()

	// A program that dereferences an unmapped private address.
	prog := enclaves.FaultingProgram(l)
	spec, err := enclaves.Spec(l, prog, nil, regions[:1],
		[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
	if err != nil {
		t.Fatal(err)
	}
	built, err := sys.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Enter(0, built.EID, built.TIDs[0], 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || !res.Trap.Cause.IsPageFault() {
		t.Fatalf("expected page fault delegation, got %+v", res)
	}
	core := sys.Machine.Cores[0]
	if core.EnclaveMode {
		t.Fatal("core left in enclave mode after fault AEX")
	}
}

// --- Snapshot & copy-on-write clone (E15, DESIGN.md §8) ---

// TestSnapshotClonePool forks request-serving workers from one
// measured template through the OS pool manager, on every platform:
// each clone starts from the template's measured initial state (a
// running total of 100 in its private data page), diverges privately
// through copy-on-write, and recycles cleanly — page refcounts return
// to zero after teardown.
func TestSnapshotClonePool(t *testing.T) {
	for _, pk := range allKinds {
		t.Run(pk.name, func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: pk.kind})
			if err != nil {
				t.Fatal(err)
			}
			l := enclaves.DefaultLayout()
			tmplShared, err := sys.SetupShared(l.SharedVA)
			if err != nil {
				t.Fatal(err)
			}
			regions := sys.OS.FreeRegions()
			dataInit := make([]byte, 8)
			dataInit[0] = 100 // initial running total
			spec, err := enclaves.Spec(l, enclaves.StatefulAdder(l), dataInit,
				regions[:1], []os.SharedMapping{{VA: l.SharedVA, PA: tmplShared}})
			if err != nil {
				t.Fatal(err)
			}
			pool, err := os.NewPool(sys.OS, spec, regions[1:3], 1)
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot froze pages and holds references.
			if refs := sys.Machine.Mem.TotalRefs(); refs == 0 {
				t.Fatal("snapshot holds no page references")
			}

			run := func(w *os.Worker, input uint64) uint64 {
				t.Helper()
				if err := sys.SharedWriteWord(w.SharedPA, enclaves.ShInput, input); err != nil {
					t.Fatal(err)
				}
				// Point the shared window at this worker's buffer. Under
				// Sanctum, outside-evrange VAs translate through the OS
				// page tables, so the OS remaps SharedVA per worker;
				// under Keystone/baseline the clone's own tables carry
				// the per-clone override from Acquire. Both paths end at
				// w.SharedPA.
				if err := sys.OS.MapUser(l.SharedVA, w.SharedPA, pt.R|pt.W|pt.U); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Enter(0, w.EID, w.TIDs[0], 1_000_000); err != nil {
					t.Fatal(err)
				}
				out, err := sys.SharedReadWord(w.SharedPA, enclaves.ShOutput)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}

			// Two workers with private untrusted buffers.
			buf1, err := sys.OS.AllocPagePA()
			if err != nil {
				t.Fatal(err)
			}
			buf2, err := sys.OS.AllocPagePA()
			if err != nil {
				t.Fatal(err)
			}
			w1, err := pool.Acquire(buf1)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := pool.Acquire(buf2)
			if err != nil {
				t.Fatal(err)
			}
			// Both inherit the template's measurement identity…
			var meas [32]byte
			stagePA, _ := sys.OS.StagePage()
			if _, err := sys.OS.SM.EnclaveStatus(w1.EID, stagePA); err != nil {
				t.Fatal(err)
			}
			m, _ := sys.OS.ReadOwned(stagePA, 32)
			copy(meas[:], m)
			if meas != pool.Template.Measurement {
				t.Fatal("clone measurement differs from template")
			}
			// …and the measurement still matches the verifier replay of
			// the template's spec: fork does not change identity.
			if pool.Template.Measurement != os.ExpectedMeasurement(spec) {
				t.Fatal("template measurement does not match transcript replay")
			}

			// First write hits the COW fault path; state then diverges
			// per clone and persists across entries.
			if got := run(w1, 5); got != 105 {
				t.Fatalf("w1 first run: %d, want 105", got)
			}
			if got := run(w1, 5); got != 110 {
				t.Fatalf("w1 second run: %d, want 110", got)
			}
			if got := run(w2, 7); got != 107 {
				t.Fatalf("w2 run: %d, want 107 (diverged from w1)", got)
			}

			// Recycle both workers, re-acquire: the fresh worker starts
			// from the measured initial state again.
			if err := pool.Release(w1); err != nil {
				t.Fatal(err)
			}
			if err := pool.Release(w2); err != nil {
				t.Fatal(err)
			}
			w3, err := pool.Acquire(buf1)
			if err != nil {
				t.Fatal(err)
			}
			if got := run(w3, 1); got != 101 {
				t.Fatalf("recycled worker run: %d, want 101", got)
			}
			if err := pool.Release(w3); err != nil {
				t.Fatal(err)
			}

			// Teardown: snapshot released, template deleted, and every
			// page refcount back to baseline.
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			if refs := sys.Machine.Mem.TotalRefs(); refs != 0 {
				t.Fatalf("page refcounts leaked after pool teardown: %d", refs)
			}
		})
	}
}

// coldStartAllocs is the exact number of heap objects one Sanctum cold
// start allocates (Go 1.24): pool Acquire, Enter, Release. What is left
// is per-enclave metadata — the enclave, its thread, maps, the COW
// bitmap, the worker handle — plus the batched submission's responses
// and the fault record of the run's COW fault. Scrubbed pages are
// recycled, a fork's bookkeeping does not grow with the template, a
// clone shell never starts a measurement, an ECALL runs on its core's
// reused call context, the trap record of the run's exit lands in its
// core's result buffer, every request posted to the cores is a plain
// function or a method value bound once, and a delete collects the
// threads it locks on the stack.
// The count does not depend on the host, so it is gated exactly: a
// rise is a regression, and a fall should lower the pin.
const coldStartAllocs = 14

// TestColdStartAllocs pins the allocations of one pooled cold start on
// Sanctum — Pool.Acquire, System.Enter, Pool.Release — the cycle the
// serving benchmark's cold-start workload runs per request.
func TestColdStartAllocs(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	shared, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		t.Fatal(err)
	}
	regions := sys.OS.FreeRegions()
	dataInit := make([]byte, 8)
	dataInit[0] = 100
	spec, err := enclaves.Spec(l, enclaves.StatefulAdder(l), dataInit,
		regions[:1], []os.SharedMapping{{VA: l.SharedVA, PA: shared}})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.NewPool(spec, regions[1:3], 1)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(0)
	start := func() {
		n++
		w, err := pool.Acquire(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SharedWriteWord(shared, enclaves.ShInput, n); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Enter(0, w.EID, w.TIDs[0], 1_000_000); err != nil {
			t.Fatal(err)
		}
		if got, _ := sys.SharedReadWord(shared, enclaves.ShOutput); got != 100+n {
			t.Fatalf("cold start %d answered %d, want %d", n, got, 100+n)
		}
		if err := pool.Release(w); err != nil {
			t.Fatal(err)
		}
	}
	start() // first use of each clone region
	if got := testing.AllocsPerRun(100, start); got != coldStartAllocs {
		t.Fatalf("one cold start allocates %.2f objects, want exactly %d", got, coldStartAllocs)
	}
}

// TestDeterministicReplay runs the same snapshot/clone scenario on two
// fresh systems and requires bit-identical observables — cycles,
// steps, measurements, outputs. CI runs every TestDeterministic* twice
// (-count=2) to catch within-process nondeterminism too.
func TestDeterministicReplay(t *testing.T) {
	type observables struct {
		meas       [32]byte
		out1, out2 uint64
		steps      int
		cycles     uint64
		tlbHits    uint64
	}
	scenario := func() observables {
		t.Helper()
		sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
		if err != nil {
			t.Fatal(err)
		}
		l := enclaves.DefaultLayout()
		sharedPA, _ := sys.SetupShared(l.SharedVA)
		regions := sys.OS.FreeRegions()
		dataInit := make([]byte, 8)
		dataInit[0] = 9
		spec, err := enclaves.Spec(l, enclaves.StatefulAdder(l), dataInit,
			regions[:1], []os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := os.NewPool(sys.OS, spec, regions[1:2], 1)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := sys.OS.AllocPagePA()
		if err != nil {
			t.Fatal(err)
		}
		w, err := pool.Acquire(buf)
		if err != nil {
			t.Fatal(err)
		}
		var o observables
		o.meas = pool.Template.Measurement
		if err := sys.OS.MapUser(l.SharedVA, buf, pt.R|pt.W|pt.U); err != nil {
			t.Fatal(err)
		}
		sys.SharedWriteWord(buf, enclaves.ShInput, 4)
		res, err := sys.Enter(0, w.EID, w.TIDs[0], 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		o.steps = res.Steps
		o.out1, _ = sys.SharedReadWord(buf, enclaves.ShOutput)
		sys.SharedWriteWord(buf, enclaves.ShInput, 6)
		if _, err := sys.Enter(0, w.EID, w.TIDs[0], 1_000_000); err != nil {
			t.Fatal(err)
		}
		o.out2, _ = sys.SharedReadWord(buf, enclaves.ShOutput)
		o.cycles = sys.Machine.Cores[0].CPU.Cycles
		o.tlbHits = sys.Machine.Cores[0].TLB.Hits
		if err := pool.Release(w); err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	a, b := scenario(), scenario()
	if a != b {
		t.Fatalf("replay diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
	if a.out1 != 13 || a.out2 != 19 {
		t.Fatalf("outputs %d/%d, want 13/19", a.out1, a.out2)
	}
}

// TestPoolRecyclesAndRecovers covers the pool's resource hygiene: a
// two-thread template recycled many times must not consume fresh
// metadata pages per cycle (tid bases are reused), and a failed
// Acquire — a clone region snatched by another owner mid-flight —
// must unwind cleanly and leave the pool usable once the region
// returns.
func TestPoolRecyclesAndRecovers(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	sharedPA, _ := sys.SetupShared(l.SharedVA)
	regions := sys.OS.FreeRegions()
	spec, err := enclaves.Spec(l, enclaves.StatefulAdder(l), nil,
		regions[:1], []os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
	if err != nil {
		t.Fatal(err)
	}
	// A second (never-run) thread, so each worker needs two contiguous
	// tid pages — the case where leaking would exhaust metadata.
	spec.Threads = append(spec.Threads, os.ThreadSpec{EntryVA: l.CodeVA, StackVA: l.SP()})
	pool, err := os.NewPool(sys.OS, spec, regions[1:2], 1)
	if err != nil {
		t.Fatal(err)
	}

	// Many acquire/release cycles: with tid-base reuse this allocates
	// the two tid pages once; without it the metadata region (128 KiB /
	// 4 KiB = 32 pages here) would exhaust well before 40 cycles.
	for i := 0; i < 40; i++ {
		w, err := pool.Acquire(0)
		if err != nil {
			t.Fatalf("cycle %d: acquire: %v", i, err)
		}
		if len(w.TIDs) != 2 {
			t.Fatalf("cycle %d: worker has %d tids", i, len(w.TIDs))
		}
		if err := pool.Release(w); err != nil {
			t.Fatalf("cycle %d: release: %v", i, err)
		}
	}

	// Snatch the pool's clone region: the next Acquire must fail and
	// unwind (shell deleted, region recoverable, no metadata leak).
	thief, err := sys.OS.AllocMetaPage()
	if err != nil {
		t.Fatal(err)
	}
	cloneRegion := regions[1]
	if err := sys.OS.SM.CreateEnclave(thief, l.EvBase, l.EvMask); err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.GrantRegion(cloneRegion, thief); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Acquire(0); err == nil {
		t.Fatal("acquire succeeded without its clone region")
	}
	// Return the region and the pool recovers.
	if err := sys.OS.SM.DeleteEnclave(thief); err != nil {
		t.Fatal(err)
	}
	sys.OS.ReleaseMetaPage(thief)
	if err := sys.OS.SM.CleanRegion(cloneRegion); err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.GrantRegion(cloneRegion, api.DomainOS); err != nil {
		t.Fatal(err)
	}
	w, err := pool.Acquire(0)
	if err != nil {
		t.Fatalf("acquire after recovery: %v", err)
	}
	if err := pool.Release(w); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if refs := sys.Machine.Mem.TotalRefs(); refs != 0 {
		t.Fatalf("refs after teardown: %d", refs)
	}
}
