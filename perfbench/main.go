// Command perfbench is the repository benchmark. It drives the
// Sanctorum stack through its public calls on one of four seeded
// workloads, checks every response against a Go-side model, and prints
// the end-to-end metrics (-trace 0) or the per-layer ledger (-trace 1),
// ending with one JSON line. Build and run it from the repository root
// with
//
//	bash perfbench/run.sh --workload fleet-kv-zipf --seed 1 --seconds 20 --trace 0
//
// Host time is the CPU time of the thread driving the load; modeled
// cycles and the modeled per-layer counts come from a fixed
// deterministic segment and must repeat exactly for a given seed.
// README.md in this directory defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/telemetry"
)

// tally counts ops attempted and ops that failed or answered wrongly.
type tally struct{ ops, failed int }

func (t *tally) add(o tally) { t.ops += o.ops; t.failed += o.failed }

// sut is one built system under test.
type sut interface {
	machines() []*machine.Machine
	registry() *telemetry.Registry
	warm() (tally, error) // fixed warm-up, counted in set-up time
	det() (tally, error)  // the fixed deterministic segment
	// unit runs one closed-loop unit (a wave or one op) of the timed
	// phase, continuing the deterministic segment's input stream.
	unit(tr *tracer) (tally, error)
	close() error
}

func repeat(s sut, n int) (tally, error) {
	var t tally
	for i := 0; i < n; i++ {
		u, err := s.unit(nil)
		t.add(u)
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

type workload struct {
	name  string
	unit  string // what one closed-loop unit is, for the latency note
	build func(seed uint64) (sut, error)
	open  bool // traced runs add an open-loop phase (fleet-kv-zipf)
}

var workloads = []workload{
	{"fleet-kv-zipf", "wave of 64 requests", newFleetKV, true},
	{"bulk-kv-4k", "wave of 16 descriptors", newBulkKV, false},
	{"provision-clone", "clone cold start", newProvisionClone, false},
	{"provision-attest", "handshake + transfer", newProvisionAttest, false},
}

const (
	// setups is how many times a run builds its system; set-up time is
	// their median, and every build's deterministic segment must yield
	// the same modeled ledger.
	setups = 15
	// window is the throughput window, in thread CPU time:
	// host.ops_per_cpu_s is the median of the windows' rates.
	window = 100 * time.Millisecond
	// maxSpansWritten caps each span list in a trace file.
	maxSpansWritten = 50_000
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for trace files")
	flag.Parse()
	runtime.LockOSThread() // the thread CPU clock must follow the measuring goroutine
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {fleet-kv-zipf|bulk-kv-4k|provision-clone|provision-attest} --seed N --seconds N>=1 --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		out: *out, metrics: map[string]float64{}, notes: map[string]string{}}
	if err := r.execute(); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	r.report()
	if len(r.problems) > 0 || r.t.failed > 0 {
		os.Exit(1)
	}
}

type run struct {
	w     *workload
	seed  uint64
	dur   time.Duration
	trace bool
	out   string

	t        tally
	problems []string
	heap     heapPeak
	metrics  map[string]float64
	notes    map[string]string // how each metric was measured, for the human table
}

// execute builds the system setups times. Each build is timed (the
// set-up time), runs the deterministic segment (whose modeled ledger
// must match every other build's), and then serves its share of the
// measured closed loop. Host speed on a shared VM drifts over seconds
// and also differs from build to build (each build's simulated memory
// lands on different host pages), so spreading the measured time over
// many builds averages both.
func (r *run) execute() error {
	closedDur := r.dur
	if r.trace && r.w.open {
		closedDur = r.dur / 2 // the open loop gets the other half
	}
	var setupS []float64
	var ledger map[string]float64
	var plain, traced loopStats
	var lg *traceLog
	if r.trace {
		lg = newTraceLog()
	}
	for i := 0; i < setups; i++ {
		s, setup, l, err := r.build()
		if err != nil {
			return fmt.Errorf("build %d: %w", i, err)
		}
		setupS = append(setupS, setup)
		if ledger == nil {
			ledger = l
		} else if diff, same := sameLedger(ledger, l); !same {
			r.problems = append(r.problems, fmt.Sprintf(
				"DETERMINISM VIOLATION: build %d's deterministic segment differs from build 0's (%s)", i, diff))
		}
		if lg != nil && i%2 == 1 {
			err = lg.serveTraced(s, &traced, closedDur/setups)
		} else if lg != nil {
			err = lg.servePlain(s, &plain, closedDur/setups)
		} else {
			err = closedLoop(&plain, s, closedDur/setups, nil)
		}
		if err == nil && lg != nil && r.w.open && i == setups-1 {
			lg.otr = newTracer()
			lg.open, err = s.(*fleetKV).openLoop(r.dur-closedDur, lg.otr)
			r.t.add(lg.open.t)
		}
		r.heap.sampleAfterGC()
		if cerr := s.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close build %d: %w", i, cerr)
		}
		if err != nil {
			return err
		}
		runtime.GC() // each build starts from the same heap
	}
	r.t.add(plain.t)
	r.t.add(traced.t)
	r.put("setup_s", median(setupS), fmt.Sprintf("thread CPU seconds, median of %d builds incl. warm-up", setups))
	r.put("cycles_per_op", ledger["cycles_per_op"], "modeled, deterministic segment")
	if lg != nil {
		return r.reportTraced(ledger, lg, &plain, &traced)
	}
	r.putQuantile("svc_p1_us", &plain.svc, 0.01, "thread CPU time per "+r.w.unit)
	r.put("heap_MB", float64(r.heap.peak)/1e6, "largest live Go heap after a forced collection")
	r.putHost(&plain)
	return nil
}

// build boots one system, warms it up, and runs its deterministic
// segment, returning the set-up time and the segment's modeled ledger.
func (r *run) build() (sut, float64, map[string]float64, error) {
	c0 := threadCPU()
	s, err := r.w.build(r.seed)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("set-up: %w", err)
	}
	warm, err := s.warm()
	setup := (threadCPU() - c0).Seconds()
	r.t.add(warm)
	if err != nil {
		s.close()
		return nil, 0, nil, fmt.Errorf("warm-up: %w", err)
	}
	before := readCounters(s.machines(), s.registry())
	d, err := s.det()
	r.t.add(d)
	if err != nil {
		s.close()
		return nil, 0, nil, fmt.Errorf("deterministic segment: %w", err)
	}
	return s, setup, modeled(before, readCounters(s.machines(), s.registry()), d.ops), nil
}

// putQuantile reports the q-quantile of a latency stream with its
// support; an end-to-end percentile without minBeyond samples on its
// far side fails the run.
func (r *run) putQuantile(name string, h *hist, q float64, how string) {
	p := h.quantile(q)
	note := fmt.Sprintf("%s, n=%d, %d below, %d beyond", how, p.n, p.below, p.beyond)
	if !p.ok(q) {
		note += fmt.Sprintf(" (fewer than %d on the far side: not reportable)", minBeyond)
		if !r.trace {
			r.problems = append(r.problems, name+": "+note)
		}
	}
	r.put(name, p.value, note)
}

// putHost reports the untraced closed loop's host-time figures: the
// median and tail of the thread CPU time per unit, throughput per CPU
// second, and the wall-clock view of the same loop.
func (r *run) putHost(st *loopStats) {
	how := "untraced closed loop"
	r.put("host.ops_per_cpu_s", median(st.cpuRates), fmt.Sprintf("%s, median of %d windows of %v thread CPU", how, len(st.cpuRates), window))
	r.putQuantile("host.svc_p50_us", &st.svc, 0.50, how+", thread CPU time per "+r.w.unit)
	r.putQuantile("host.svc_p99_us", &st.svc, 0.99, how+", thread CPU time per "+r.w.unit)
	r.put("wall.ops_per_s", median(st.rates), fmt.Sprintf("%s, median of %d windows", how, len(st.rates)))
	r.putQuantile("wall.unit_p50_us", &st.lat, 0.50, how+", wall time per "+r.w.unit)
	r.putQuantile("wall.unit_p99_us", &st.lat, 0.99, how+", wall time per "+r.w.unit)
	r.put("host.offcpu_pct", 100*(1-ratio(float64(st.onCPU), float64(st.elapsed))),
		how+", wall time the measuring thread spent off CPU")
}

// traceLog holds a traced run's recorders: the untraced builds'
// runtime statistics, and the traced builds' spans, CPU profiles and
// counter deltas.
type traceLog struct {
	tr, otr  *tracer
	open     openStats
	profiles [][]byte
	deltas   map[string]uint64

	mallocs, bytes uint64  // untraced builds' allocations
	gcCPU, busyCPU float64 // untraced builds' CPU seconds
}

func newTraceLog() *traceLog { return &traceLog{tr: newTracer(), deltas: map[string]uint64{}} }

// servePlain runs an untraced share of the closed loop, recording the
// runtime's allocation and GC figures around it.
func (lg *traceLog) servePlain(s sut, st *loopStats, dur time.Duration) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()
	err := closedLoop(st, s, dur, nil)
	cpu1 := readCPU()
	runtime.ReadMemStats(&ms1)
	lg.mallocs += ms1.Mallocs - ms0.Mallocs
	lg.bytes += ms1.TotalAlloc - ms0.TotalAlloc
	lg.gcCPU += cpu1.gc - cpu0.gc
	lg.busyCPU += (cpu1.total - cpu1.idle) - (cpu0.total - cpu0.idle)
	return err
}

// serveTraced runs a traced share of the closed loop: spans around
// every public call, a CPU profile, and the counter deltas.
func (lg *traceLog) serveTraced(s sut, st *loopStats, dur time.Duration) error {
	before := readCounters(s.machines(), s.registry())
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	err := closedLoop(st, s, dur, lg.tr)
	pprof.StopCPUProfile()
	lg.profiles = append(lg.profiles, prof.Bytes())
	for k, v := range counterDeltas(before, readCounters(s.machines(), s.registry())) {
		lg.deltas[k] += v
	}
	return err
}

// reportTraced computes the per-layer ledger of a traced run.
func (r *run) reportTraced(ledger map[string]float64, lg *traceLog, plain, traced *loopStats) error {
	for _, d := range perLayer {
		if v, ok := ledger[d.name]; ok {
			r.put(d.name, v, "modeled, deterministic segment")
		}
	}
	n := float64(plain.t.ops)
	r.put("runtime.allocs_per_op", ratio(float64(lg.mallocs), n), "untraced closed loop")
	r.put("runtime.bytes_per_op", ratio(float64(lg.bytes), n), "untraced closed loop")
	r.put("runtime.gc_cpu_pct", 100*ratio(lg.gcCPU, lg.busyCPU), "untraced closed loop, share of busy CPU")
	r.put("trace.overhead_pct", 100*(1-ratio(median(traced.cpuRates), median(plain.cpuRates))),
		"traced vs untraced closed-loop ops per CPU second")
	r.putHost(plain)

	buckets, samples := map[string]int{}, 0
	for _, p := range lg.profiles {
		counts, total, err := profileBuckets(p)
		if err != nil {
			return err
		}
		for b, c := range counts {
			buckets[b] += c
		}
		samples += total
	}
	for _, b := range hostBuckets {
		r.put("host."+b+"_pct", 100*ratio(float64(buckets[b]), float64(samples)),
			fmt.Sprintf("traced closed loop, %d CPU samples", samples))
	}

	sum := lg.tr.summary()
	busy := func(name string) float64 { return 100 * stat(sum, name).TotalUs / us(traced.elapsed) }
	p50 := func(name string) float64 { return stat(sum, name).P50Us }
	r.put("fleet.process.p50_us", p50("fleet.Fleet.Process"), "traced closed loop")
	r.put("fleet.process.busy_pct", busy("fleet.Fleet.Process"), "traced closed loop")
	r.put("fleet.connect.p50_us", p50("fleet.Fleet.Connect"), "traced closed loop")
	r.put("fleet.transfer.p50_us", p50("fleet.Channel.Transfer"), "traced closed loop")
	r.put("os.process_bulk.p50_us", p50("os.Gateway.ProcessBulk"), "traced closed loop")
	r.put("os.write_owned.busy_pct", busy("os.OS.WriteOwned"), "traced closed loop")
	r.put("os.read_owned.busy_pct", busy("os.OS.ReadOwned"), "traced closed loop")
	r.put("os.pool.acquire.p50_us", p50("os.Pool.Acquire"), "traced closed loop")
	r.put("os.pool.release.p50_us", p50("os.Pool.Release"), "traced closed loop")

	for _, name := range []string{"fleet.open.lat_p50_us", "fleet.open.lat_p99_us", "loadgen.late_p99_us", "loadgen.batch_mean"} {
		r.put(name, 0, "no open loop")
	}
	if ol := &lg.open; lg.otr != nil {
		how := fmt.Sprintf("open loop at %d req/s", openRate)
		r.putQuantile("fleet.open.lat_p50_us", &ol.lat, 0.50, how+", from due time")
		r.putQuantile("fleet.open.lat_p99_us", &ol.lat, 0.99, how+", from due time")
		r.putQuantile("loadgen.late_p99_us", &ol.late, 0.99, how+", due to send")
		r.put("loadgen.batch_mean", ratio(float64(ol.t.ops), float64(ol.calls)), how+", requests per Process call")
	}
	return r.writeTrace(lg, sum)
}

// writeTrace writes the traced run's recorders: spans, their per-name
// summary, the counter deltas over the traced closed loop, and the raw
// CPU profiles (readable with go tool pprof).
func (r *run) writeTrace(lg *traceLog, sum []*spanStats) error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.out, fmt.Sprintf("%s-seed%d", r.w.name, r.seed))
	// The summaries cover every span; the span lists are cut at
	// maxSpansWritten each so a file stays a few MB.
	first := func(sp []span) []span { return sp[:min(len(sp), maxSpansWritten)] }
	doc := map[string]any{
		"workload": r.w.name, "seed": r.seed,
		"closed_loop_spans": first(lg.tr.spans), "closed_loop_span_count": len(lg.tr.spans),
		"closed_loop_summary": sum, "counter_deltas": lg.deltas,
	}
	if lg.otr != nil {
		doc["open_loop_spans"] = first(lg.otr.spans)
		doc["open_loop_span_count"] = len(lg.otr.spans)
		doc["open_loop_summary"] = lg.otr.summary()
	}
	js, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", js, 0o644); err != nil {
		return err
	}
	for i, p := range lg.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pb.gz", base, i), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) put(name string, v float64, note string) {
	r.metrics[name] = v
	r.notes[name] = note
}

// report prints the human-readable table, then the JSON result line.
func (r *run) report() {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v\n", r.w.name, r.seed, r.dur.Seconds(), r.trace)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		out[d.name] = jm{v, d.unit}
		fmt.Printf("  %-40s %14.4f %-8s %s\n", d.name, v, d.unit, r.notes[d.name])
	}
	if !r.trace {
		// Host-time figures too noisy on a shared VM to carry a bound;
		// the traced run reports them in the per-layer ledger.
		fmt.Println("  not bounded:")
		for _, d := range perLayer {
			if v, ok := r.metrics[d.name]; ok {
				fmt.Printf("  %-40s %14.4f %-8s %s\n", d.name, v, d.unit, r.notes[d.name])
			}
		}
		if r.w.name == "bulk-kv-4k" {
			fmt.Printf("  %-40s %14.4f %-8s %s\n", "MB_per_cpu_s", r.metrics["host.ops_per_cpu_s"]*bulkValueLen/1e6, "MB/cpu-s",
				"value bytes, host.ops_per_cpu_s x 4096 B")
		}
	}
	fmt.Printf("  %-40s %14.6f %-8s %d of %d ops failed or answered wrongly\n", "error_rate",
		ratio(float64(r.t.failed), float64(r.t.ops)), "ratio", r.t.failed, r.t.ops)
	problems := append([]string(nil), r.problems...)
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	js, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(r.problems) == 0 && r.t.failed == 0, max(r.t.ops, 1), r.t.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
}

// loopStats is one closed-loop phase.
type loopStats struct {
	t        tally
	cpuRates []float64     // ops per thread CPU second, per window
	rates    []float64     // ops per wall second, over the same windows
	svc      hist          // thread CPU µs per unit
	lat      hist          // wall µs per unit
	elapsed  time.Duration // wall time of the phase
	onCPU    time.Duration // thread CPU time of the phase
}

// closedLoop runs units back to back for dur of wall time, adding to
// st.
func closedLoop(st *loopStats, s sut, dur time.Duration, tr *tracer) error {
	start, startCPU := time.Now(), threadCPU()
	winStart, winCPU, winOps := start, startCPU, 0
	defer func() { st.elapsed, st.onCPU = st.elapsed+time.Since(start), st.onCPU+threadCPU()-startCPU }()
	for {
		t0, c0 := time.Now(), threadCPU()
		if t0.Sub(start) >= dur {
			return nil
		}
		u, err := s.unit(tr)
		t1, c1 := time.Now(), threadCPU()
		st.t.add(u)
		if err != nil {
			return err
		}
		st.lat.add(us(t1.Sub(t0)))
		st.svc.add(us(c1 - c0))
		winOps += u.ops
		if c1-winCPU >= window {
			st.cpuRates = append(st.cpuRates, float64(winOps)/(c1-winCPU).Seconds())
			st.rates = append(st.rates, float64(winOps)/t1.Sub(winStart).Seconds())
			winStart, winCPU, winOps = t1, c1, 0
		}
	}
}

// openStats is one open-loop phase.
type openStats struct {
	t     tally
	calls int
	lat   hist // µs from due time to response, per request
	late  hist // µs from due time to send, per request
}

// heapPeak tracks the largest live Go heap, read right after a forced
// collection once set-up is done and again after the timed phase. A
// reading between collections would depend on where in the GC cycle it
// fell, and on how fast the run allocated while the collector marked.
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
}

func (h *heapPeak) sampleAfterGC() {
	runtime.GC()
	if h.s == nil {
		h.s = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	}
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

type cpuClasses struct{ gc, total, idle float64 }

func readCPU() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}
