package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	ios "sanctorum/internal/os"
	"sanctorum/internal/telemetry"
)

// provision-clone: a clone cold start. Acquire forks a worker from the
// measured StatefulAdder template (create, grant, clone_enclave), the
// worker serves one seeded request (its first private write takes the
// copy-on-write fault), and Release tears it down (delete_enclave,
// delete_thread, clean_region).
const (
	cloneWarm = 20
	cloneDet  = 200
	cloneBase = 1000 // the template's measured running total
)

type provisionClone struct {
	sys      *sanctorum.System
	pool     *ios.Pool
	sharedPA uint64
	seed     uint64
	r        *rand.Rand
}

func newProvisionClone(seed uint64) (sut, error) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		return nil, err
	}
	l := enclaves.DefaultLayout()
	sharedPA, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		return nil, err
	}
	regions := sys.OS.FreeRegions()
	data := binary.LittleEndian.AppendUint64(nil, cloneBase)
	spec, err := enclaves.Spec(l, enclaves.StatefulAdder(l), data, regions[:1],
		[]ios.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
	if err != nil {
		return nil, err
	}
	pool, err := sys.NewPool(spec, regions[1:2], 1)
	if err != nil {
		return nil, err
	}
	return &provisionClone{sys: sys, pool: pool, sharedPA: sharedPA, seed: seed,
		r: newRand(seed, streamWarm)}, nil
}

func (s *provisionClone) machines() []*machine.Machine  { return []*machine.Machine{s.sys.Machine} }
func (s *provisionClone) registry() *telemetry.Registry { return s.sys.Telemetry }
func (s *provisionClone) close() error                  { return s.pool.Close() }
func (s *provisionClone) warm() (tally, error)          { return repeat(s, cloneWarm) }

func (s *provisionClone) det() (tally, error) {
	s.r = newRand(s.seed, streamDet)
	return repeat(s, cloneDet)
}

func (s *provisionClone) unit(tr *tracer) (tally, error) {
	root := tr.beginOp("op.clone")
	defer tr.end(root)
	t := tally{ops: 1, failed: 1}
	n := cloneInput(s.r)
	sp := tr.begin("os.Pool.Acquire", root)
	w, err := s.pool.Acquire(0) // alias the template's shared page
	tr.end(sp)
	if err != nil {
		return t, fmt.Errorf("acquire: %w", err)
	}
	if err := s.sys.SharedWriteWord(s.sharedPA, enclaves.ShInput, n); err != nil {
		return t, err
	}
	sp = tr.begin("sanctorum.System.Enter", root)
	res, err := s.sys.Enter(0, w.EID, w.TIDs[0], 1_000_000)
	tr.end(sp)
	if err != nil {
		return t, fmt.Errorf("enter clone: %w", err)
	}
	out, err := s.sys.SharedReadWord(s.sharedPA, enclaves.ShOutput)
	if err != nil {
		return t, err
	}
	sp = tr.begin("os.Pool.Release", root)
	err = s.pool.Release(w)
	tr.end(sp)
	if err != nil {
		return t, fmt.Errorf("release: %w", err)
	}
	if res.Reason == machine.StopReturnToOS && out == cloneBase+n {
		t.failed = 0
	}
	return t, nil
}

// provision-attest: Fleet.Connect(0, 1) on a 2-shard Sanctum fleet —
// the mutual Fig 7 remote-attestation handshake, both directions —
// then one seeded message through Channel.Transfer, which must arrive
// intact.
const (
	attestWarm = 3
	attestDet  = 10
)

type provisionAttest struct {
	f    *sanctorum.Fleet
	seed uint64
	r    *rand.Rand
}

func newProvisionAttest(seed uint64) (sut, error) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
		Kind:   sanctorum.Sanctum,
		Shards: 2,
		// The verifier's nonces and key shares come from the seed.
		Config: sanctorum.FleetConfig{Seed: binary.LittleEndian.AppendUint64([]byte("perfbench"), seed)},
	})
	if err != nil {
		return nil, err
	}
	return &provisionAttest{f: f, seed: seed, r: newRand(seed, streamWarm)}, nil
}

func (s *provisionAttest) machines() []*machine.Machine {
	return []*machine.Machine{s.f.Host(0).Machine, s.f.Host(1).Machine}
}
func (s *provisionAttest) registry() *telemetry.Registry { return s.f.Telemetry() }
func (s *provisionAttest) close() error                  { return s.f.Close() }
func (s *provisionAttest) warm() (tally, error)          { return repeat(s, attestWarm) }

func (s *provisionAttest) det() (tally, error) {
	s.r = newRand(s.seed, streamDet)
	return repeat(s, attestDet)
}

func (s *provisionAttest) unit(tr *tracer) (tally, error) {
	root := tr.beginOp("op.attest")
	defer tr.end(root)
	t := tally{ops: 1, failed: 1}
	from, msg := attestMessage(s.r)
	sp := tr.begin("fleet.Fleet.Connect", root)
	ch, err := s.f.Connect(0, 1)
	tr.end(sp)
	if err != nil {
		return t, fmt.Errorf("connect: %w", err)
	}
	sp = tr.begin("fleet.Channel.Transfer", root)
	got, err := ch.Transfer(from, msg)
	tr.end(sp)
	if err != nil {
		return t, fmt.Errorf("transfer: %w", err)
	}
	if bytes.Equal(got, msg) {
		t.failed = 0
	}
	return t, nil
}
