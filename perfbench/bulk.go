package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// bulk-kv-4k: one Sanctum system, one BulkKVServer worker with a
// 16-page grant, closed-loop waves of 16 descriptors, descriptor i
// naming the i-th 4 KiB span of the buffer.
const (
	bulkWave  = 16
	bulkPages = 16
	bulkWarm  = 50  // waves
	bulkDet   = 100 // waves in the deterministic segment
)

type bulkKV struct {
	sys    *sanctorum.System
	pool   *ios.Pool
	gw     *ios.Gateway
	basePA uint64
	seed   uint64
	gen    *bulkGen

	values [][]byte
	model  [bulkSlots][]byte // the slot's last put; nil reads as zeroes
	zero   []byte
	ops    [bulkWave]bulkOp
	reqs   [bulkWave][]byte
	bufs   [bulkWave][api.RingMsgSize]byte
}

func newBulkKV(seed uint64) (sut, error) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		return nil, err
	}
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	sharedPA, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		return nil, err
	}
	spec, err := enclaves.BulkSpec(l, enclaves.BulkKVServer(l), regions[:1], sharedPA)
	if err != nil {
		return nil, err
	}
	pool, err := sys.NewPool(spec, regions[1:2], 1)
	if err != nil {
		return nil, err
	}
	gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
		Workers:    1,
		BulkPages:  bulkPages,
		BulkRegion: regions[2],
	})
	if err != nil {
		return nil, err
	}
	_, basePA, size := gw.BulkBuffer(0)
	if size < bulkWave*bulkValueLen {
		return nil, fmt.Errorf("bulk buffer of %d bytes, need %d", size, bulkWave*bulkValueLen)
	}
	s := &bulkKV{
		sys: sys, pool: pool, gw: gw, basePA: basePA, seed: seed,
		gen:    newBulkGen(seed, streamWarm),
		values: bulkValueSet(seed),
		zero:   make([]byte, bulkValueLen),
	}
	return s, nil
}

func (s *bulkKV) machines() []*machine.Machine  { return []*machine.Machine{s.sys.Machine} }
func (s *bulkKV) registry() *telemetry.Registry { return s.sys.Telemetry }

func (s *bulkKV) close() error {
	if err := s.gw.Close(); err != nil {
		return err
	}
	return s.pool.Close()
}

func (s *bulkKV) warm() (tally, error) { return repeat(s, bulkWarm) }

func (s *bulkKV) det() (tally, error) {
	s.gen = newBulkGen(s.seed, streamDet)
	return repeat(s, bulkDet)
}

// encodeBulk writes a BulkKVRequest payload into buf without allocating.
func encodeBulk(buf *[api.RingMsgSize]byte, op, key, off, ln uint64) []byte {
	*buf = api.EncodeBulkDescs([2]uint64{off, ln})
	binary.LittleEndian.PutUint64(buf[32:], op)
	binary.LittleEndian.PutUint64(buf[40:], key)
	return buf[:]
}

// unit is one wave: stage the puts' values with WriteOwned, serve the
// 16 descriptors with ProcessBulk, read every get back with ReadOwned
// and compare it with the slot's last put in request order (the one
// worker serves its ring FIFO).
func (s *bulkKV) unit(tr *tracer) (tally, error) {
	root := tr.beginOp("op.bulk_wave")
	defer tr.end(root)
	t := tally{ops: bulkWave}
	for i := range s.ops {
		o := s.gen.next()
		s.ops[i] = o
		off := uint64(i * bulkValueLen)
		op := uint64(enclaves.RingOpGet)
		if o.put {
			op = enclaves.RingOpPut
			sp := tr.begin("os.OS.WriteOwned", root)
			err := s.sys.OS.WriteOwned(s.basePA+off, s.values[o.val])
			tr.end(sp)
			if err != nil {
				t.failed = bulkWave
				return t, fmt.Errorf("stage put: %w", err)
			}
		}
		s.reqs[i] = encodeBulk(&s.bufs[i], op, o.slot, off, bulkValueLen)
	}
	sp := tr.begin("os.Gateway.ProcessBulk", root)
	resps, err := s.gw.ProcessBulk(0, s.reqs[:])
	tr.end(sp)
	if err != nil {
		t.failed = bulkWave
		return t, fmt.Errorf("process bulk: %w", err)
	}
	for i, o := range s.ops {
		ok := bytes.Equal(resps[i], s.reqs[i])
		if o.put {
			s.model[o.slot] = s.values[o.val]
		} else {
			sp := tr.begin("os.OS.ReadOwned", root)
			got, err := s.sys.OS.ReadOwned(s.basePA+uint64(i*bulkValueLen), bulkValueLen)
			tr.end(sp)
			if err != nil {
				t.failed = bulkWave
				return t, fmt.Errorf("read get: %w", err)
			}
			want := s.model[o.slot]
			if want == nil {
				want = s.zero
			}
			ok = ok && bytes.Equal(got, want)
		}
		if !ok {
			t.failed++
		}
	}
	return t, nil
}
