// End-to-end tests for the zero-copy bulk data plane (DESIGN.md §14):
// monitor-granted shared buffers, scatter-gather descriptor rings, and
// the gateway's ProcessBulk path over them.
package sanctorum_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// sg builds a scatter-gather descriptor message as a byte slice.
func sg(descs ...[2]uint64) []byte {
	d := api.EncodeBulkDescs(descs...)
	return d[:]
}

// bulkService builds a pool from the given bulk-server program and a
// gateway with a bulkPages-page granted buffer per worker. The pool has
// one clone region per worker.
func bulkService(t testing.TB, sys *sanctorum.System, prog string, nWorkers, bulkPages int) (*ios.Pool, *ios.Gateway) {
	return bulkServiceClones(t, sys, prog, nWorkers, nWorkers, bulkPages)
}

// bulkServiceClones is bulkService over a pool of clones clone regions,
// clones ≥ nWorkers, so the gateway can grow with AddWorker.
func bulkServiceClones(t testing.TB, sys *sanctorum.System, prog string, nWorkers, clones, bulkPages int) (*ios.Pool, *ios.Gateway) {
	t.Helper()
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	if len(regions) < 2+clones {
		t.Fatalf("need %d free regions, have %d", 2+clones, len(regions))
	}
	sharedPA, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		t.Fatal(err)
	}
	var program = enclaves.BulkEchoServer(l)
	if prog == "kv" {
		program = enclaves.BulkKVServer(l)
	}
	spec, err := enclaves.BulkSpec(l, program, regions[:1], sharedPA)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.NewPool(spec, regions[1:1+clones], 1)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
		Workers:    nWorkers,
		BulkPages:  bulkPages,
		BulkRegion: regions[1+clones],
		Sched:      sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool, gw
}

// fillPattern writes a deterministic per-worker byte pattern.
func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = byte(i>>3) ^ seed
	}
}

// TestBulkEchoService serves scatter-gather checksum requests through
// the gateway on every platform backend: request data is staged in each
// worker's granted buffer, 64-byte descriptor messages name spans of
// it, and the enclave's checksums prove it dereferenced its mapping —
// with every worker holding a distinct window VA, which is what makes
// the plane work under Sanctum's single OS page table.
func TestBulkEchoService(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			const nWorkers, bulkPages = 2, 16
			pool, gw := bulkService(t, sys, "echo", nWorkers, bulkPages)
			for w := 0; w < nWorkers; w++ {
				grant, basePA, size := gw.BulkBuffer(w)
				if grant == 0 || size != bulkPages*4096 {
					t.Fatalf("worker %d: grant %#x size %d", w, grant, size)
				}
				buf := make([]byte, size)
				fillPattern(buf, byte(w))
				if err := sys.OS.WriteOwned(basePA, buf); err != nil {
					t.Fatal(err)
				}
				reqs := [][]byte{
					sg([2]uint64{0, 4096}),
					sg([2]uint64{0, 8192}, [2]uint64{3 * 4096, 4096}),
					sg([2]uint64{8, 4088}, [2]uint64{2 * 4096, 8192}, [2]uint64{uint64(size - 4096), 4096}),
					sg([2]uint64{0, uint64(size)}),
				}
				out, err := gw.ProcessBulk(w, reqs)
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
				for i, req := range reqs {
					want := enclaves.BulkEchoExpected(req, buf)
					if !bytes.Equal(out[i], want) {
						t.Errorf("worker %d request %d:\n got %x\nwant %x", w, i, out[i], want)
					}
				}
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterministicBulkReplay runs the identical bulk workload on two
// independently built systems under the deterministic scheduler and
// requires the runs to agree observable-by-observable: every response
// byte, the wave count, the modeled cycle counters of every core, and
// the full telemetry snapshot — which includes the bulk-plane
// instruments (sm.bulk.bytes, sm.bulk.grants, sm.bulk.descs), so the
// zero-copy path is provably replay-stable while instrumented.
func TestDeterministicBulkReplay(t *testing.T) {
	run := func() ([][]byte, int, []uint64, string) {
		sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
		if err != nil {
			t.Fatal(err)
		}
		const bulkPages = 8
		pool, gw := bulkService(t, sys, "echo", 1, bulkPages)
		_, basePA, size := gw.BulkBuffer(0)
		buf := make([]byte, size)
		fillPattern(buf, 0x3C)
		if err := sys.OS.WriteOwned(basePA, buf); err != nil {
			t.Fatal(err)
		}
		var reqs [][]byte
		for i := uint64(0); i < 12; i++ {
			off := (i % uint64(bulkPages)) * 4096
			reqs = append(reqs, sg([2]uint64{off, 4096}))
		}
		resps, err := gw.ProcessBulk(0, reqs)
		if err != nil {
			t.Fatal(err)
		}
		waves := gw.Waves
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		var cycles []uint64
		for _, c := range sys.Machine.Cores {
			cycles = append(cycles, c.CPU.Cycles)
		}
		return resps, waves, cycles, sys.Telemetry.Snapshot().Text()
	}
	aResp, aWaves, aCycles, aSnap := run()
	bResp, bWaves, bCycles, bSnap := run()
	if aWaves != bWaves {
		t.Fatalf("wave counts diverged: %d vs %d", aWaves, bWaves)
	}
	for i := range aResp {
		if !bytes.Equal(aResp[i], bResp[i]) {
			t.Fatalf("response %d diverged: %x vs %x", i, aResp[i], bResp[i])
		}
	}
	if fmt.Sprint(aCycles) != fmt.Sprint(bCycles) {
		t.Fatalf("modeled cycles diverged: %v vs %v", aCycles, bCycles)
	}
	if aSnap != bSnap {
		t.Fatalf("telemetry snapshots diverged:\n%s\nvs\n%s", aSnap, bSnap)
	}
}

// TestBulkKVService round-trips multi-KB values through the bulk KV
// worker: put copies a described span out of the shared buffer into
// private enclave slot pages, get copies it back into a different span
// — so the value provably survived inside the enclave, not the buffer.
func TestBulkKVService(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			pool, gw := bulkService(t, sys, "kv", 1, 8)
			_, basePA, size := gw.BulkBuffer(0)
			const valLen = 2048
			val := make([]byte, valLen)
			fillPattern(val, 0xA5)
			if err := sys.OS.WriteOwned(basePA, val); err != nil {
				t.Fatal(err)
			}
			put := enclaves.BulkKVRequest(enclaves.RingOpPut, 5, 0, valLen)
			out, err := gw.ProcessBulk(0, [][]byte{put})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[0], put) {
				t.Fatalf("put response not echoed: %x", out[0])
			}
			// Scrub the buffer, then get the value back into another span.
			if err := sys.OS.WriteOwned(basePA, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			get := enclaves.BulkKVRequest(enclaves.RingOpGet, 5, 4096, valLen)
			if _, err := gw.ProcessBulk(0, [][]byte{get}); err != nil {
				t.Fatal(err)
			}
			got, err := sys.OS.ReadOwned(basePA+4096, valLen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, val) {
				t.Fatalf("value did not survive the enclave round trip")
			}
			// A key that misses (slot never put) reads back zeroes.
			miss := enclaves.BulkKVRequest(enclaves.RingOpGet, 6, 0, valLen)
			if _, err := gw.ProcessBulk(0, [][]byte{miss}); err != nil {
				t.Fatal(err)
			}
			got, err = sys.OS.ReadOwned(basePA, valLen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, valLen)) {
				t.Fatalf("missing key read back nonzero bytes")
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBulkRequestTrace arms a request trace before ProcessBulk and
// requires the same dispatch → send → execute → recv → response span
// chain a keyed request gets, since bulk requests ride the gateway's one
// serving loop. The arming is consumed by that call: the Process call
// after it must emit no spans.
func TestBulkRequestTrace(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	pool, gw := bulkService(t, sys, "echo", 2, 4)
	reqs := make([][]byte, 20)
	for i := range reqs {
		reqs[i] = sg([2]uint64{uint64(i%4) * 4096, 4096})
	}
	tr := telemetry.NewTrace(sys.Machine.CycleNow)
	root := tr.Begin(-1, "test", "bulk")
	gw.TraceRequest(tr, root, 13)
	if _, err := gw.ProcessBulk(1, reqs); err != nil {
		t.Fatal(err)
	}
	tr.End(root)

	spans := tr.Spans()
	want := []struct{ layer, name string }{
		{"test", "bulk"},
		{"gateway", "dispatch worker=1"},
		{"ring", "send n=8"},
		{"worker", "execute"},
		{"ring", "recv"},
		{"gateway", "response"},
	}
	if len(spans) != len(want) {
		t.Fatalf("trace has %d spans, want %d:\n%s", len(spans), len(want), tr.Render())
	}
	dispatch := spans[1].ID
	for i, s := range spans {
		if s.Layer != want[i].layer || s.Name != want[i].name {
			t.Fatalf("span %d is %s/%s, want %s/%s:\n%s", i, s.Layer, s.Name,
				want[i].layer, want[i].name, tr.Render())
		}
		if s.End < s.Begin {
			t.Fatalf("span %d (%s/%s) never closed", i, s.Layer, s.Name)
		}
		parent := dispatch
		switch i {
		case 0:
			parent = -1
		case 1:
			parent = root
		}
		if s.Parent != parent {
			t.Fatalf("span %d (%s/%s) has parent %d, want %d:\n%s", i, s.Layer, s.Name,
				s.Parent, parent, tr.Render())
		}
	}
	if exec := spans[3]; exec.End <= exec.Begin {
		t.Fatalf("worker execute span retired no cycles: [%d, %d]", exec.Begin, exec.End)
	}

	if _, err := gw.Process(reqs[:4]); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Spans()); n != len(want) {
		t.Fatalf("Process after the traced ProcessBulk added %d spans:\n%s", n-len(want), tr.Render())
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAddWorkerFailureUnwinds grows a bulk gateway past what its bulk
// region can back: the third worker's buffer does not fit, so
// AddWorker must fail and leave the serving set, the pool and the
// monitor's state exactly as they were — and the gateway still serving.
func TestAddWorkerFailureUnwinds(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	// Two 16-page buffers fill the 32-page bulk region; the pool could
	// back a third worker.
	pool, gw := bulkServiceClones(t, sys, "echo", 2, 3, 16)
	// Cycle the spare clone region through the pool once, so it is in
	// the state a released worker leaves it in before the snapshot.
	w, err := pool.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Release(w); err != nil {
		t.Fatal(err)
	}
	before := sys.Monitor.CaptureState()
	free := pool.FreeWorkers()

	for attempt := 0; attempt < 2; attempt++ {
		err := gw.AddWorker()
		if err == nil || !strings.Contains(err.Error(), "too small for worker 2") {
			t.Fatalf("attempt %d: AddWorker = %v, want bulk region too small for worker 2", attempt, err)
		}
		if n := gw.NumWorkers(); n != 2 {
			t.Fatalf("attempt %d: %d workers after a failed AddWorker, want 2", attempt, n)
		}
		if grant, base, size := gw.BulkBuffer(2); grant != 0 || base != 0 || size != 0 {
			t.Fatalf("attempt %d: BulkBuffer(2) = %#x %#x %d after a failed AddWorker", attempt, grant, base, size)
		}
		if got := pool.FreeWorkers(); got != free {
			t.Fatalf("attempt %d: pool has %d free workers, want %d", attempt, got, free)
		}
		if after := sys.Monitor.CaptureState(); !after.Equal(before) {
			t.Fatalf("attempt %d: monitor state changed: %s", attempt, before.Diff(after))
		}
	}

	for worker := 0; worker < 2; worker++ {
		if _, err := gw.ProcessBulk(worker, [][]byte{sg([2]uint64{0, 4096})}); err != nil {
			t.Fatalf("worker %d after the failed AddWorker: %v", worker, err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}
