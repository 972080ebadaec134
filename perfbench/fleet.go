package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// fleet-kv-zipf: a 2-shard Sanctum fleet of RingKVServer workers,
// shards served on the caller's goroutine, driven by one client in
// closed-loop waves of 64 requests; traced runs add an open-loop phase
// of Poisson arrivals at openRate, about a tenth of capacity.
const (
	fleetWave    = 64
	fleetWarm    = 100 // waves
	fleetDet     = 200 // waves in the deterministic segment
	openRate     = 30_000
	openMaxBatch = 4096 // guard: a stalled host must not build an unbounded batch
)

type fleetKV struct {
	f    *sanctorum.Fleet
	seed uint64
	gen  *kvGen

	ops  [fleetWave]kvOp
	reqs []sanctorum.FleetRequest
	bufs [][api.RingMsgSize]byte
}

func newFleetKV(seed uint64) (sut, error) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
		Kind:   sanctorum.Sanctum,
		Shards: 2,
		Config: sanctorum.FleetConfig{Workload: "kv"},
	})
	if err != nil {
		return nil, err
	}
	s := &fleetKV{f: f, seed: seed, gen: newKVGen(seed, streamWarm)}
	s.grow(fleetWave)
	return s, nil
}

func (s *fleetKV) grow(n int) {
	for len(s.bufs) < n {
		s.bufs = append(s.bufs, [api.RingMsgSize]byte{})
	}
}

func (s *fleetKV) machines() []*machine.Machine {
	ms := make([]*machine.Machine, s.f.NumShards())
	for i := range ms {
		ms[i] = s.f.Host(i).Machine
	}
	return ms
}

func (s *fleetKV) registry() *telemetry.Registry { return s.f.Telemetry() }
func (s *fleetKV) close() error                  { return s.f.Close() }

func (s *fleetKV) warm() (tally, error) { return repeat(s, fleetWarm) }

func (s *fleetKV) det() (tally, error) {
	s.gen = newKVGen(s.seed, streamDet)
	return repeat(s, fleetDet)
}

// encodeKV writes a RingKVRequest payload into buf without allocating.
func encodeKV(buf *[api.RingMsgSize]byte, o kvOp) []byte {
	*buf = [api.RingMsgSize]byte{}
	op, val := uint64(enclaves.RingOpGet), uint64(0)
	if o.put {
		op, val = enclaves.RingOpPut, kvValue(o.slot())
	}
	binary.LittleEndian.PutUint64(buf[0:], op)
	binary.LittleEndian.PutUint64(buf[8:], o.slot())
	binary.LittleEndian.PutUint64(buf[16:], val)
	return buf[:]
}

// checkKV: a reply echoes its slot and carries 0 or the slot's fixed
// put value (a put's reply carries the value it stored).
func checkKV(o kvOp, resp []byte) bool {
	if len(resp) != api.RingMsgSize || binary.LittleEndian.Uint64(resp[8:]) != o.slot() {
		return false
	}
	for _, b := range resp[16:] {
		if b != 0 {
			return false
		}
	}
	v, want := binary.LittleEndian.Uint64(resp), kvValue(o.slot())
	return v == want || (!o.put && v == 0)
}

// unit is one closed-loop wave of fleetWave requests.
func (s *fleetKV) unit(tr *tracer) (tally, error) {
	s.reqs = s.reqs[:0]
	for i := range s.ops {
		s.ops[i] = s.gen.next()
		s.reqs = append(s.reqs, sanctorum.FleetRequest{
			Session: s.ops[i].session(), Payload: encodeKV(&s.bufs[i], s.ops[i]),
		})
	}
	return s.process(s.ops[:], tr, tr.beginOp("op.fleet_wave"))
}

func (s *fleetKV) process(ops []kvOp, tr *tracer, root int) (tally, error) {
	sp := tr.begin("fleet.Fleet.Process", root)
	resps, err := s.f.Process(s.reqs)
	tr.end(sp)
	tr.end(root)
	t := tally{ops: len(ops)}
	if err != nil {
		t.failed = len(ops)
		return t, fmt.Errorf("fleet process: %w", err)
	}
	for i, o := range ops {
		if !checkKV(o, resps[i]) {
			t.failed++
		}
	}
	return t, nil
}

// openLoop offers Poisson arrivals at openRate for dur. Every request
// due by the time the client is free goes out in one Process call;
// each is timed from its due time, and how late it was sent is the
// generator's lateness.
func (s *fleetKV) openLoop(dur time.Duration, tr *tracer) (openStats, error) {
	keys := newKVGen(s.seed, streamOpenKeys)
	arr := newArrivals(s.seed, openRate)
	var st openStats
	var ops []kvOp
	var dues []time.Duration
	next := arr.next()
	start := time.Now()
	for {
		now := time.Since(start)
		if now >= dur {
			break
		}
		if next > now {
			continue // spin: a sleep's wake-up jitter would dwarf the 33 µs mean gap
		}
		ops, dues, s.reqs = ops[:0], dues[:0], s.reqs[:0]
		for next <= now && len(ops) < openMaxBatch {
			ops = append(ops, keys.next())
			dues = append(dues, next)
			next = arr.next()
		}
		s.grow(len(ops))
		for i, o := range ops {
			s.reqs = append(s.reqs, sanctorum.FleetRequest{Session: o.session(), Payload: encodeKV(&s.bufs[i], o)})
		}
		sent := time.Since(start)
		t, err := s.process(ops, tr, tr.beginOp("op.fleet_open"))
		done := time.Since(start)
		st.t.add(t)
		if err != nil {
			return st, err
		}
		st.calls++
		for _, due := range dues {
			st.lat.add(us(done - due))
			st.late.add(us(sent - due))
		}
	}
	return st, nil
}
