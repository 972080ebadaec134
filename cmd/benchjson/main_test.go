package main

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

// nsRow is a benchmark row with only ns/op set; row adds custom metrics.
func nsRow(v float64) Result { return Result{NsPerOp: v} }

func row(metrics ...any) Result {
	r := Result{NsPerOp: 1000, Metrics: map[string]float64{}}
	for i := 0; i+1 < len(metrics); i += 2 {
		r.Metrics[metrics[i].(string)] = metrics[i+1].(float64)
	}
	return r
}

// passingRows is a file in which every gate holds.
func passingRows() map[string]Result {
	return map[string]Result{
		"BenchmarkServeThroughput/per-message":      nsRow(600),
		"BenchmarkServeThroughput/batched":          nsRow(100),
		"BenchmarkCloneColdStart/full-build":        nsRow(1000),
		"BenchmarkCloneColdStart/clone":             nsRow(10),
		"BenchmarkThroughput/fast-noblock/none":     nsRow(200),
		"BenchmarkThroughput/fast/none":             nsRow(100),
		"BenchmarkThroughput/fast-noblock/sanctum":  nsRow(210),
		"BenchmarkThroughput/fast/sanctum":          nsRow(100),
		"BenchmarkThroughput/fast-noblock/keystone": nsRow(220),
		"BenchmarkThroughput/fast/keystone":         nsRow(100),
		"BenchmarkThroughput/reference/none":        nsRow(500),
		"BenchmarkThroughput/reference/sanctum":     nsRow(510),
		"BenchmarkThroughput/reference/keystone":    nsRow(520),
		"BenchmarkFleetServe/shards=1":              nsRow(130),
		"BenchmarkFleetServe/shards=4":              {NsPerOp: 100, Metrics: map[string]float64{"cpus": 2}},
		"BenchmarkGatewayServe/telemetry":           nsRow(3000),
		"BenchmarkTelemetryOverhead/gateway":        row("on-ns/req", 100.0, "off-ns/req", 97.0),
		"BenchmarkTelemetryOverhead/fleet":          row("on-ns/req", 100.0, "off-ns/req", 100.0),
		"BenchmarkBulkThroughput":                   row("bulk-MB/s", 200.0, "chunked-MB/s", 10.0),
		"StressGateway/p50":                         nsRow(10),
		"StressGateway/p99":                         nsRow(50),
		"StressGateway/p999":                        nsRow(200),
	}
}

// passingOut is what evaluate prints for passingRows, one verdict line
// per gate in table order.
var passingOut = []string{
	"  ring batching amortization (E16)                                                   6.00×  (target ≥5×)  ok\n",
	"  snapshot clone vs full build (E15)                                               100.00×  (target ≥5×)  ok\n",
	"  block tier over per-instruction fast path, none (E18)                                   2.00×  (target ≥1.4×)  ok\n",
	"  block tier over per-instruction fast path, sanctum (E18)                                   2.10×  (target ≥1.4×)  ok\n",
	"  block tier over per-instruction fast path, keystone (E18)                                   2.20×  (target ≥1.4×)  ok\n",
	"  full fast path vs reference, none (E18)                                            5.00×  (target ≥3×)  ok\n",
	"  full fast path vs reference, sanctum (E18)                                         5.10×  (target ≥3×)  ok\n",
	"  full fast path vs reference, keystone (E18)                                        5.20×  (target ≥3×)  ok\n",
	"  fleet aggregate scaling (E19, 2 cpus)                                              1.30×  (target ≥1.2×)  ok\n",
	"  gateway telemetry overhead ≤5% (E20)                                               0.97×  (target ≥0.95×)  ok\n",
	"  fleet telemetry overhead ≤5% (E20)                                                 1.00×  (target ≥0.95×)  ok\n",
	"  bulk zero-copy vs chunked messages (E21)                                          20.00×  (target ≥5×)  ok\n",
	"  endurance p99 tail (E17)                                                           5.00×  (ceiling ≤8×)  ok\n",
	"  endurance p999 tail (E17)                                                         20.00×  (ceiling ≤40×)  ok\n",
}

// passingOutWithout is passingOut minus the verdict line of gate i.
func passingOutWithout(i int) string {
	return strings.Join(passingOut[:i], "") + strings.Join(passingOut[i+1:], "")
}

const scaleLine = "benchjson: host-speed scale 1.000 (baseline cal 0 ns, this run 0 ns)\n"

// TestEvaluateGates pins every machine-independent gate evaluate
// applies — static ratio floors, the per-CPU fleet-scaling floor
// (E19), telemetry on/off (E20), bulk vs chunked (E21) and the
// max-ratio ceilings (E17) — in each of its outcomes: pass, fail, the
// both-absent skip and the one-missing failure. Verdict lines, failure
// messages and re-measurement suspects must match exactly.
func TestEvaluateGates(t *testing.T) {
	edit := func(f func(m map[string]Result)) map[string]Result {
		m := passingRows()
		f(m)
		return m
	}
	for _, tc := range []struct {
		name     string
		rows     map[string]Result
		out      string
		failures []string
		suspects []string
	}{
		{
			name: "empty file skips every gate",
			rows: map[string]Result{},
			out:  "",
		},
		{
			name: "static floor pass",
			rows: map[string]Result{
				"BenchmarkServeThroughput/per-message": nsRow(600),
				"BenchmarkServeThroughput/batched":     nsRow(100),
			},
			out: "  ring batching amortization (E16)                                                   6.00×  (target ≥5×)  ok\n",
		},
		{
			name: "static floor fail",
			rows: map[string]Result{
				"BenchmarkThroughput/fast-noblock/sanctum": nsRow(130),
				"BenchmarkThroughput/fast/sanctum":         nsRow(100),
				"BenchmarkThroughput/reference/sanctum":    nsRow(510),
			},
			// The static floors print their bound with %.0f in the
			// failure message, so 1.4 reads "1×" there.
			out: "  block tier over per-instruction fast path, sanctum (E18)                                   1.30×  (target ≥1.4×)  BELOW TARGET\n" +
				"  full fast path vs reference, sanctum (E18)                                         5.10×  (target ≥3×)  ok\n",
			failures: []string{"block tier over per-instruction fast path, sanctum (E18): ratio 1.30× below the 1× target"},
			suspects: []string{"BenchmarkThroughput/fast-noblock/sanctum", "BenchmarkThroughput/fast/sanctum"},
		},
		{
			name:     "static floor one missing",
			rows:     map[string]Result{"BenchmarkCloneColdStart/clone": nsRow(10)},
			failures: []string{"snapshot clone vs full build (E15): benchmarks missing"},
		},
		{
			name: "fleet scaling pass on 1 cpu",
			rows: map[string]Result{
				"BenchmarkFleetServe/shards=1": nsRow(80),
				"BenchmarkFleetServe/shards=4": {NsPerOp: 100, Metrics: map[string]float64{"cpus": 1}},
			},
			out: "  fleet aggregate scaling (E19, 1 cpus)                                              0.80×  (target ≥0.7×)  ok\n",
		},
		{
			name: "fleet scaling fail on 3 cpus",
			rows: map[string]Result{
				"BenchmarkFleetServe/shards=1": nsRow(140),
				"BenchmarkFleetServe/shards=4": {NsPerOp: 100, Metrics: map[string]float64{"cpus": 3}},
			},
			out:      "  fleet aggregate scaling (E19, 3 cpus)                                              1.40×  (target ≥1.5×)  BELOW TARGET\n",
			failures: []string{"fleet aggregate scaling (E19, 3 cpus): ratio 1.40× below the 1.5× floor"},
			suspects: []string{"BenchmarkFleetServe/shards=1", "BenchmarkFleetServe/shards=4"},
		},
		{
			name: "fleet scaling fail on 4 cpus",
			rows: map[string]Result{
				"BenchmarkFleetServe/shards=1": nsRow(150),
				"BenchmarkFleetServe/shards=4": {NsPerOp: 100, Metrics: map[string]float64{"cpus": 4}},
			},
			out:      "  fleet aggregate scaling (E19, 4 cpus)                                              1.50×  (target ≥1.8×)  BELOW TARGET\n",
			failures: []string{"fleet aggregate scaling (E19, 4 cpus): ratio 1.50× below the 1.8× floor"},
			suspects: []string{"BenchmarkFleetServe/shards=1", "BenchmarkFleetServe/shards=4"},
		},
		{
			name:     "fleet scaling one missing",
			rows:     map[string]Result{"BenchmarkFleetServe/shards=1": nsRow(150)},
			failures: []string{"fleet aggregate scaling (E19): benchmarks missing"},
		},
		{
			name: "telemetry pass without serving rows",
			rows: map[string]Result{
				"BenchmarkTelemetryOverhead/gateway": row("on-ns/req", 100.0, "off-ns/req", 97.0),
				"BenchmarkTelemetryOverhead/fleet":   row("on-ns/req", 100.0, "off-ns/req", 100.0),
			},
			out: "  gateway telemetry overhead ≤5% (E20)                                               0.97×  (target ≥0.95×)  ok\n" +
				"  fleet telemetry overhead ≤5% (E20)                                                 1.00×  (target ≥0.95×)  ok\n",
		},
		{
			name: "telemetry fail",
			rows: map[string]Result{
				"BenchmarkTelemetryOverhead/gateway": row("on-ns/req", 100.0, "off-ns/req", 90.0),
			},
			out:      "  gateway telemetry overhead ≤5% (E20)                                               0.90×  (target ≥0.95×)  BELOW TARGET\n",
			failures: []string{"gateway telemetry overhead ≤5% (E20): ratio 0.90× below the 0.95× floor"},
			suspects: []string{"BenchmarkTelemetryOverhead/gateway"},
		},
		{
			name: "telemetry metrics missing",
			rows: map[string]Result{
				"BenchmarkTelemetryOverhead/fleet": row("on-ns/req", 100.0),
			},
			failures: []string{"fleet telemetry overhead ≤5% (E20): on/off metrics missing"},
		},
		{
			name: "telemetry row missing beside the serving rows",
			rows: edit(func(m map[string]Result) {
				delete(m, "BenchmarkTelemetryOverhead/fleet")
			}),
			out:      passingOutWithout(10),
			failures: []string{"fleet telemetry overhead ≤5% (E20): benchmark missing"},
		},
		{
			name: "bulk fail",
			rows: map[string]Result{
				"BenchmarkBulkThroughput": row("bulk-MB/s", 40.0, "chunked-MB/s", 10.0),
			},
			out:      "  bulk zero-copy vs chunked messages (E21)                                           4.00×  (target ≥5×)  BELOW TARGET\n",
			failures: []string{"bulk zero-copy vs chunked messages (E21): ratio 4.00× below the 5× floor"},
			suspects: []string{"BenchmarkBulkThroughput"},
		},
		{
			name: "bulk metrics missing",
			rows: map[string]Result{
				"BenchmarkBulkThroughput": row("bulk-MB/s", 40.0),
			},
			failures: []string{"bulk zero-copy vs chunked messages (E21): MB/s metrics missing"},
		},
		{
			name: "bulk row missing beside the serving rows",
			rows: edit(func(m map[string]Result) {
				delete(m, "BenchmarkBulkThroughput")
			}),
			out:      passingOutWithout(11),
			failures: []string{"bulk zero-copy vs chunked messages (E21): benchmark missing"},
		},
		{
			name: "ceilings pass",
			rows: map[string]Result{
				"StressGateway/p50":  nsRow(10),
				"StressGateway/p99":  nsRow(50),
				"StressGateway/p999": nsRow(200),
			},
			out: "  endurance p99 tail (E17)                                                           5.00×  (ceiling ≤8×)  ok\n" +
				"  endurance p999 tail (E17)                                                         20.00×  (ceiling ≤40×)  ok\n",
		},
		{
			name: "ceilings fail",
			rows: map[string]Result{
				"StressGateway/p50":  nsRow(10),
				"StressGateway/p99":  nsRow(100),
				"StressGateway/p999": nsRow(500),
			},
			out: "  endurance p99 tail (E17)                                                          10.00×  (ceiling ≤8×)  ABOVE CEILING\n" +
				"  endurance p999 tail (E17)                                                         50.00×  (ceiling ≤40×)  ABOVE CEILING\n",
			failures: []string{
				"endurance p99 tail (E17): ratio 10.00× above the 8× ceiling",
				"endurance p999 tail (E17): ratio 50.00× above the 40× ceiling",
			},
			suspects: []string{"StressGateway/p99", "StressGateway/p50", "StressGateway/p999", "StressGateway/p50"},
		},
		{
			name: "ceilings one missing",
			rows: map[string]Result{
				"StressGateway/p99":  nsRow(50),
				"StressGateway/p999": nsRow(200),
			},
			failures: []string{
				"endurance p99 tail (E17): benchmarks missing",
				"endurance p999 tail (E17): benchmarks missing",
			},
		},
		{
			name: "every gate passing, in table order",
			rows: passingRows(),
			out:  strings.Join(passingOut, ""),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var failures, suspects []string
			out := capture(t, func() {
				failures, suspects = evaluate(File{}, File{Benchmarks: tc.rows}, 0.15)
			})
			if want := scaleLine + tc.out; out != want {
				t.Errorf("printed:\n%s\nwant:\n%s", out, want)
			}
			if !reflect.DeepEqual(failures, tc.failures) {
				t.Errorf("failures:\n%s\nwant:\n%s", strings.Join(failures, "\n"), strings.Join(tc.failures, "\n"))
			}
			if !reflect.DeepEqual(suspects, tc.suspects) {
				t.Errorf("suspects %q, want %q", suspects, tc.suspects)
			}
		})
	}
}

// TestEvaluateRegression covers the baseline comparison evaluate runs
// before the gates: a slowdown past the threshold, after host-speed
// normalization, is a failure and a suspect; one within it is not.
func TestEvaluateRegression(t *testing.T) {
	base := File{CalibrationNs: 100, Benchmarks: map[string]Result{
		"BenchmarkA": nsRow(100),
		"BenchmarkB": nsRow(100),
		"BenchmarkC": nsRow(100),
	}}
	cur := File{CalibrationNs: 200, Benchmarks: map[string]Result{
		"BenchmarkA": nsRow(220), // 10% slower after the 2× host scale
		"BenchmarkB": nsRow(260), // 30% slower
	}}
	var failures, suspects []string
	out := capture(t, func() { failures, suspects = evaluate(base, cur, 0.15) })
	want := "benchjson: host-speed scale 2.000 (baseline cal 100 ns, this run 200 ns)\n" +
		"  BenchmarkA                                              100.0 →      110.0 ns/op   +10.0%  ok\n" +
		"  BenchmarkB                                              100.0 →      130.0 ns/op   +30.0%  REGRESSED\n"
	if out != want {
		t.Errorf("printed:\n%s\nwant:\n%s", out, want)
	}
	wantFailures := []string{
		"BenchmarkB: 260.0 ns/op vs baseline 100.0 ns/op (+30% normalized, limit +15%)",
		"BenchmarkC: missing from this run",
	}
	if !reflect.DeepEqual(failures, wantFailures) {
		t.Errorf("failures %q, want %q", failures, wantFailures)
	}
	if !reflect.DeepEqual(suspects, []string{"BenchmarkB"}) {
		t.Errorf("suspects %q, want [BenchmarkB]", suspects)
	}
}
