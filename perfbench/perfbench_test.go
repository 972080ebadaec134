package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sanctorum/internal/enclaves"
	"sanctorum/internal/sm/api"
)

// schedule draws the first n inputs of every generator for one seed.
func schedule(seed uint64, n int) string {
	var b strings.Builder
	kv := newKVGen(seed, streamDet)
	arr := newArrivals(seed, openRate)
	bulk := newBulkGen(seed, streamDet)
	r := newRand(seed, streamDet)
	for i := 0; i < n; i++ {
		from, msg := attestMessage(r)
		fmt.Fprintf(&b, "%v %v %v %d %d %x\n", kv.next(), arr.next(), bulk.next(), cloneInput(r), from, msg)
	}
	for _, v := range bulkValueSet(seed) {
		fmt.Fprintf(&b, "%x\n", v[:16])
	}
	return b.String()
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, b := schedule(7, 500), schedule(7, 500)
	if a != b {
		t.Fatal("two schedules from seed 7 differ")
	}
	if a == schedule(8, 500) {
		t.Fatal("seeds 7 and 8 give the same schedule")
	}
}

func TestScheduleShapes(t *testing.T) {
	const n = 50_000
	kv, bulk := newKVGen(1, streamDet), newBulkGen(1, streamDet)
	arr := newArrivals(1, openRate)
	var puts, bulkPuts int
	hits := make([]int, kvKeys)
	var last time.Duration
	for i := 0; i < n; i++ {
		o := kv.next()
		hits[o.key]++
		if o.put {
			puts++
		}
		if bulk.next().put {
			bulkPuts++
		}
		last = arr.next()
	}
	if share := float64(puts) / n; share < 0.19 || share > 0.21 {
		t.Errorf("fleet put share %.3f, want 0.2", share)
	}
	if share := float64(bulkPuts) / n; share < 0.24 || share > 0.26 {
		t.Errorf("bulk put share %.3f, want 0.25", share)
	}
	if hits[0] <= hits[1] || hits[1] <= hits[100] {
		t.Errorf("keys not Zipf-ranked: rank 0 %d, rank 1 %d, rank 100 %d", hits[0], hits[1], hits[100])
	}
	if rate := n / last.Seconds(); rate < 0.97*openRate || rate > 1.03*openRate {
		t.Errorf("arrival rate %.0f/s, want %d/s", rate, openRate)
	}
}

func TestQuantileReportsSupport(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{1100, 0.01, 11, 1089, true}, // 10 below
		{1000, 0.01, 10, 990, false}, // 9 below
	} {
		p := quantile(xs(c.n), c.q)
		if p.value != c.value || p.n != c.n || p.beyond != c.beyond || p.below != c.n-1-c.beyond || p.ok(c.q) != c.ok {
			t.Errorf("quantile(1..%d, %v) = %+v ok=%v, want value %v beyond %d ok=%v",
				c.n, c.q, p, p.ok(c.q), c.value, c.beyond, c.ok)
		}
	}
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(float64(i))
	}
	for _, c := range []struct {
		q      float64
		value  float64
		beyond int
	}{{0.01, 10, 990}, {0.5, 500, 500}, {0.99, 990, 10}} {
		p := h.quantile(c.q)
		if math.Abs(p.value-c.value) > c.value/500 || p.n != 1000 || p.beyond != c.beyond {
			t.Errorf("hist quantile %v = %+v, want %v within 0.2%%, %d beyond", c.q, p, c.value, c.beyond)
		}
	}
	h.add(0)
	h.add(1e12) // out of range: clamped into the end buckets, still counted
	if h.n != 1002 || h.quantile(0).value > 0.01 {
		t.Errorf("hist clamping: n=%d, min %v", h.n, h.quantile(0).value)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"sanctorum/internal/hw/machine.(*Core).Step":       "sanctorum/internal/hw/machine",
		"sanctorum/internal/os.(*Gateway).sendChunk.func1": "sanctorum/internal/os",
		"runtime.mallocgc": "runtime",
		"crypto/internal/fips140/edwards25519/field.feMul":   "crypto/internal/fips140/edwards25519/field",
		"main.(*fleetKV).unit":                               "main",
		"sanctorum/internal/x.F[sanctorum/internal/y.T]":     "sanctorum/internal/x",
		"sanctorum.(*System).Enter":                          "sanctorum",
		"sanctorum/internal/smcall.(*Client).Call":           "sanctorum/internal/smcall",
		"sanctorum/internal/sm/api.EncodeBulkDescs":          "sanctorum/internal/sm/api",
		"type:.eq.sanctorum/internal/telemetry.HistStats":    "type:.eq.sanctorum/internal/telemetry",
		"sanctorum/internal/hw/cache.(*Cache).TouchFastN-fm": "sanctorum/internal/hw/cache",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestStackBucket(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "sanctorum/internal/os.(*OS).ReadOwned"}, "alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "main.main"}, "gc"},
		{[]string{"runtime.memmove", "sanctorum/internal/os.(*OS).WriteOwned"}, "os"},
		{[]string{"runtime.nanotime1", "time.now", "main.closedLoop"}, "loadgen"},
		{[]string{"sanctorum/internal/smcall.(*Client).Call"}, "smcall"},
		{[]string{"sanctorum/internal/sm.(*Monitor).Dispatch"}, "sm"},
		{[]string{"sanctorum/internal/hw/tlb.(*TLB).Lookup"}, "memsys"},
		{[]string{"crypto/internal/fips140/edwards25519/field.feMul", "crypto/ed25519.Sign"}, "crypto"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"runtime._ExternalCode"}, "other"},
	} {
		if got := stackBucket(c.frames); got != c.want {
			t.Errorf("stackBucket(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// Every package of the system maps to a named bucket, so new code
// cannot slip into host.other_pct unnoticed.
func TestEveryInternalPackageHasABucket(t *testing.T) {
	known := map[string]bool{}
	for _, b := range hostBuckets {
		known[b] = true
	}
	pkgs := []string{"sanctorum"}
	err := filepath.WalkDir(filepath.Join("..", "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		pkg := "sanctorum/" + filepath.ToSlash(rel)
		if len(pkgs) == 0 || pkgs[len(pkgs)-1] != pkg {
			pkgs = append(pkgs, pkg)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages under ../internal", len(pkgs))
	}
	for _, pkg := range pkgs {
		if b := packageBucket(pkg); b == "" || b == "other" || !known[b] {
			t.Errorf("package %s maps to bucket %q", pkg, b)
		}
	}
}

// A real CPU profile decodes, and the busy loop in this package lands
// in loadgen.
func TestProfileBucketsDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 10_000; i++ {
			x = mix64(x)
		}
	}
	pprof.StopCPUProfile()
	counts, total, err := profileBuckets(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || counts["loadgen"] < total/2 {
		t.Fatalf("profile buckets %v of %d samples (x=%d): the busy loop should be loadgen", counts, total, x)
	}
}

func TestEncodersMatchEnclaveHelpers(t *testing.T) {
	var buf [api.RingMsgSize]byte
	for _, o := range []kvOp{{key: 300, put: true}, {key: 5}} {
		op, val := uint64(enclaves.RingOpGet), uint64(0)
		if o.put {
			op, val = enclaves.RingOpPut, kvValue(o.slot())
		}
		if got, want := encodeKV(&buf, o), enclaves.RingKVRequest(op, o.slot(), val); !bytes.Equal(got, want) {
			t.Errorf("encodeKV(%+v) = %x, want %x", o, got, want)
		}
	}
	if got, want := encodeBulk(&buf, enclaves.RingOpPut, 3, 8192, 4096),
		enclaves.BulkKVRequest(enclaves.RingOpPut, 3, 8192, 4096); !bytes.Equal(got, want) {
		t.Errorf("encodeBulk = %x, want %x", got, want)
	}
}

// Two independent builds with one seed yield the same modeled ledger
// on every workload — the property the benchmark's determinism guard
// checks on every run.
func TestDeterministicSegmentRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var ledgers []map[string]float64
			for i := 0; i < 2; i++ {
				s, err := w.build(3)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.warm(); err != nil {
					t.Fatal(err)
				}
				before := readCounters(s.machines(), s.registry())
				d, err := s.det()
				if err != nil || d.failed != 0 {
					t.Fatalf("deterministic segment: %d of %d failed, %v", d.failed, d.ops, err)
				}
				ledgers = append(ledgers, modeled(before, readCounters(s.machines(), s.registry()), d.ops))
				if err := s.close(); err != nil {
					t.Fatal(err)
				}
			}
			if diff, same := sameLedger(ledgers[0], ledgers[1]); !same {
				t.Fatalf("ledgers differ: %s", diff)
			}
			if ledgers[0]["cycles_per_op"] <= 0 {
				t.Fatalf("cycles_per_op = %v, want > 0", ledgers[0]["cycles_per_op"])
			}
		})
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		var g, w []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit, m.Better})
		}
		w = append(w, defs...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s:\n%v\nprogram reports:\n%v", kind, g, w)
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
