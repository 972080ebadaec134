package main

import (
	"math/rand/v2"
	"time"
)

// Every workload input is a pure function of the seed: each generator
// owns a PCG stream keyed by (seed, stream), so the length of one phase
// never shifts the inputs of another.
const (
	streamWarm         = iota + 1 // warm-up requests, run inside set-up
	streamDet                     // the deterministic segment, continued by the timed closed loop
	streamOpenKeys                // open-loop request keys
	streamOpenArrivals            // open-loop arrival times
	streamValues                  // bulk value contents
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// mix64 is the splitmix64 finaliser: it spreads small integers over the
// whole 64-bit space (session keys over the fleet's hash ring).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Fleet KV requests: sessions drawn Zipf(kvZipfS) over kvKeys keys,
// kvPutShare of them puts. RingKVServer keeps kvSlots word slots (key
// mod 128), so the KV key is the session's slot and a put always
// stores kvValue(slot): a get must return 0 or that value, whichever
// worker the request spilled to.
const (
	kvKeys     = 4096
	kvZipfS    = 1.1
	kvPutShare = 0.2
	kvSlots    = 128
)

type kvOp struct {
	key uint64 // Zipf rank in [0, kvKeys); rank 0 is the hottest session
	put bool
}

func (o kvOp) session() uint64 { return mix64(o.key) }
func (o kvOp) slot() uint64    { return o.key % kvSlots }

func kvValue(slot uint64) uint64 { return mix64(slot|1<<40) | 1 }

type kvGen struct {
	r *rand.Rand
	z *rand.Zipf
}

func newKVGen(seed, stream uint64) *kvGen {
	r := newRand(seed, stream)
	return &kvGen{r: r, z: rand.NewZipf(r, kvZipfS, 1, kvKeys-1)}
}

func (g *kvGen) next() kvOp {
	return kvOp{key: g.z.Uint64(), put: g.r.Float64() < kvPutShare}
}

// arrivals is a Poisson process: exponential gaps at a fixed rate,
// returned as due times from the start of the open-loop phase.
type arrivals struct {
	r      *rand.Rand
	meanNs float64
	t      float64
}

func newArrivals(seed uint64, perSecond float64) *arrivals {
	return &arrivals{r: newRand(seed, streamOpenArrivals), meanNs: 1e9 / perSecond}
}

func (a *arrivals) next() time.Duration {
	a.t += a.r.ExpFloat64() * a.meanNs
	return time.Duration(a.t)
}

// Bulk KV requests: one 4 KiB value per descriptor over the server's
// 8 slots, one put to three gets; a put stages one of bulkValues
// seeded values.
const (
	bulkSlots    = 8
	bulkValueLen = 4096
	bulkValues   = 32
)

type bulkOp struct {
	put  bool
	slot uint64
	val  int // index into the seeded value set (puts only)
}

type bulkGen struct{ r *rand.Rand }

func newBulkGen(seed, stream uint64) *bulkGen { return &bulkGen{r: newRand(seed, stream)} }

func (g *bulkGen) next() bulkOp {
	return bulkOp{put: g.r.IntN(4) == 0, slot: g.r.Uint64N(bulkSlots), val: g.r.IntN(bulkValues)}
}

// bulkValueSet returns the seeded 4 KiB values puts draw from.
func bulkValueSet(seed uint64) [][]byte {
	r := newRand(seed, streamValues)
	vals := make([][]byte, bulkValues)
	for i := range vals {
		v := make([]byte, bulkValueLen)
		for j := 0; j < len(v); j += 8 {
			x := r.Uint64()
			for k := 0; k < 8; k++ {
				v[j+k] = byte(x >> (8 * k))
			}
		}
		vals[i] = v
	}
	return vals
}

// cloneInput is the number a fresh clone adds to its template's total.
func cloneInput(r *rand.Rand) uint64 { return r.Uint64N(1<<20) + 1 }

// attestMessage is the channel transfer after a handshake: a direction
// and a 16..256-byte message.
func attestMessage(r *rand.Rand) (from int, msg []byte) {
	from = r.IntN(2)
	msg = make([]byte, 16+r.IntN(241))
	for i := range msg {
		msg[i] = byte(r.Uint32())
	}
	return from, msg
}
