package fleet

import (
	"fmt"

	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// workersPerShard is each shard's initial gateway size.
const workersPerShard = 2

// shard is one machine's serving stack plus its fleet wiring: the
// attestation enclave pair (signing enclave ES and attested client
// E1), and the clone pool and key-affinity gateway serving requests.
type shard struct {
	id   int
	host Host

	pool *ios.Pool
	gw   *ios.Gateway

	es, e1     *ios.BuiltEnclave
	shES, shE1 uint64 // shared-page PAs of ES and E1

	clientMeas  [32]byte // expected measurement of E1 (same program fleet-wide)
	monitorMeas [32]byte
}

func buildShard(id int, h Host, cfg *Config) (*shard, error) {
	s := &shard{id: id, host: h, monitorMeas: h.Monitor.Identity().Measurement}
	o := h.OS

	lES := enclaves.DefaultLayout()
	lE1 := enclaves.DefaultLayout()
	lE1.SharedVA = 0x50002000
	regions := o.FreeRegions()
	need := 3 + workersPerShard + cfg.SpareWorkers
	if len(regions) < need {
		return nil, fmt.Errorf("need %d free regions, have %d", need, len(regions))
	}
	var err error
	if s.shES, err = o.MapUserPage(lES.SharedVA); err != nil {
		return nil, err
	}
	if s.shE1, err = o.MapUserPage(lE1.SharedVA); err != nil {
		return nil, err
	}
	esSpec, err := enclaves.Spec(lES, enclaves.SigningEnclave(lES), nil, regions[:1],
		[]ios.SharedMapping{{VA: lES.SharedVA, PA: s.shES}})
	if err != nil {
		return nil, err
	}
	e1Spec, err := enclaves.Spec(lE1, enclaves.AttestedClient(lE1),
		enclaves.ClientDataInit(), regions[1:2],
		[]ios.SharedMapping{{VA: lE1.SharedVA, PA: s.shE1}})
	if err != nil {
		return nil, err
	}
	s.clientMeas = ios.ExpectedMeasurement(e1Spec)
	if s.es, err = o.BuildEnclave(esSpec); err != nil {
		return nil, fmt.Errorf("signing enclave: %w", err)
	}
	if s.e1, err = o.BuildEnclave(e1Spec); err != nil {
		return nil, fmt.Errorf("attested client: %w", err)
	}

	// The serving pool and gateway, exactly the PR 4–5 stack, with the
	// key-affinity router so a session stays on one worker.
	lW := enclaves.DefaultLayout()
	var prog = enclaves.RingEchoServer(lW)
	if cfg.Workload == "kv" {
		prog = enclaves.RingKVServer(lW)
	}
	wSpec, err := enclaves.Spec(lW, prog, nil, regions[2:3], nil)
	if err != nil {
		return nil, err
	}
	if s.pool, err = ios.NewPool(o, wSpec, regions[3:need], 1); err != nil {
		return nil, err
	}
	if s.gw, err = ios.NewGateway(o, h.Monitor, s.pool, ios.GatewayConfig{
		Workers: workersPerShard,
		Sched:   cfg.Sched,
		Router:  ios.KeyAffinity{},
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// runGuest enters one of the shard's attestation enclaves on core 0
// and runs it to its next voluntary exit.
func (s *shard) runGuest(b *ios.BuiltEnclave) error {
	if st := s.host.OS.EnterEnclave(0, b.EID, b.TIDs[0]); st != api.OK {
		return fmt.Errorf("fleet: shard %d enter: %w", s.id, st)
	}
	res, err := s.host.Machine.Run(0, 2_000_000)
	if err != nil {
		return fmt.Errorf("fleet: shard %d: %w", s.id, err)
	}
	if res.Reason != machine.StopReturnToOS {
		return fmt.Errorf("fleet: shard %d guest stopped %v", s.id, res.Reason)
	}
	return nil
}

func (s *shard) writeWord(pa uint64, off, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * uint(i)))
	}
	return s.host.OS.WriteOwned(pa+off, b[:])
}

func (s *shard) close() error {
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	if s.gw != nil {
		keep(s.gw.Close())
	}
	if s.pool != nil {
		keep(s.pool.Close())
	}
	return firstErr
}
