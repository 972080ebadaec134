package main

// metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists the same names, units and
// directions in the same order (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	name, unit, better string
}

// endToEnd is printed with -trace 0, on every workload. "Op" is the
// workload's unit of work: one KV request (fleet-kv-zipf), one 4 KiB
// descriptor (bulk-kv-4k), one clone cold start (provision-clone), one
// handshake plus transfer (provision-attest).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"svc_p1_us", "us", "lower"},
	{"cycles_per_op", "cycles", "lower"},
	{"heap_MB", "MB", "lower"},
}

// sampledCalls are the monitor calls whose per-op counts the ledger
// reports (sm.call.<name>.per_op).
var sampledCalls = []string{
	"mailbox_ring_send", "mailbox_ring_recv", "thread_park", "resume_aex", "enter_enclave",
	"bulk_send", "bulk_recv",
	"clone_enclave", "delete_enclave", "clean_region", "attest_sign",
}

// hostBuckets are the host.<bucket>_pct shares of CPU profile samples.
var hostBuckets = []string{
	"fleet", "os", "smcall", "sm", "engine", "memsys", "telemetry", "crypto",
	"alloc", "gc", "sched", "loadgen", "other",
}

// perLayer is printed with -trace 1, on every workload; a layer the
// workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.ops_per_cpu_s", "op/cpu-s", "higher"},
		{"host.svc_p50_us", "us", "lower"},
		{"host.svc_p99_us", "us", "lower"},
		{"wall.ops_per_s", "op/s", "higher"},
		{"wall.unit_p50_us", "us", "lower"},
		{"wall.unit_p99_us", "us", "lower"},
		{"host.offcpu_pct", "%", "lower"},
		{"fleet.open.lat_p50_us", "us", "lower"},
		{"fleet.open.lat_p99_us", "us", "lower"},
		{"loadgen.late_p99_us", "us", "lower"},
		{"loadgen.batch_mean", "req/call", "lower"},
		{"fleet.process.p50_us", "us", "lower"},
		{"fleet.process.busy_pct", "%", "lower"},
		{"fleet.spill_ratio", "ratio", "lower"},
		{"fleet.shard_skew", "ratio", "lower"},
		{"fleet.connect.p50_us", "us", "lower"},
		{"fleet.transfer.p50_us", "us", "lower"},
		{"os.gateway.waves_per_op", "1/op", "lower"},
		{"os.gateway.chunk_mean", "req/send", "higher"},
		{"os.gateway.request_cycles_p50", "cycles", "lower"},
		{"os.gateway.request_cycles_p99", "cycles", "lower"},
		{"os.process_bulk.p50_us", "us", "lower"},
		{"os.write_owned.busy_pct", "%", "lower"},
		{"os.read_owned.busy_pct", "%", "lower"},
		{"os.pool.acquire.p50_us", "us", "lower"},
		{"os.pool.release.p50_us", "us", "lower"},
		{"smcall.retries_per_op", "1/op", "lower"},
		{"sm.calls_per_op", "1/op", "lower"},
		{"sm.retries_per_op", "1/op", "lower"},
	}
	for _, c := range sampledCalls {
		defs = append(defs, metricDef{"sm.call." + c + ".per_op", "1/op", "lower"})
	}
	defs = append(defs,
		metricDef{"sm.ring.send_batch_mean", "msg/call", "higher"},
		metricDef{"sm.ring.recv_batch_mean", "msg/call", "higher"},
		metricDef{"sm.ring.parks_per_op", "1/op", "lower"},
		metricDef{"sm.ring.wakes_per_op", "1/op", "lower"},
		metricDef{"sm.ring.parkwait_cycles_p99", "cycles", "lower"},
		metricDef{"sm.bulk.descs_per_op", "1/op", "higher"},
		metricDef{"sm.bulk.bytes_per_op", "B/op", "higher"},
		metricDef{"machine.block.instrs_per_op", "1/op", "higher"},
		metricDef{"machine.block.compiled_per_kop", "1/kop", "lower"},
		metricDef{"machine.block.rejected_per_kop", "1/kop", "lower"},
		metricDef{"machine.block.invalidations_per_kop", "1/kop", "lower"},
		metricDef{"machine.block.revalidations_per_kop", "1/kop", "lower"},
		metricDef{"machine.block.guard_bails_per_kop", "1/kop", "lower"},
		metricDef{"machine.tlb.miss_ratio", "ratio", "lower"},
		metricDef{"machine.l1.miss_ratio", "ratio", "lower"},
		metricDef{"machine.l2.miss_ratio", "ratio", "lower"},
		metricDef{"runtime.allocs_per_op", "1/op", "lower"},
		metricDef{"runtime.bytes_per_op", "B/op", "lower"},
		metricDef{"runtime.gc_cpu_pct", "%", "lower"},
	)
	for _, b := range hostBuckets {
		defs = append(defs, metricDef{"host." + b + "_pct", "%", "lower"})
	}
	return append(defs, metricDef{"trace.overhead_pct", "%", "lower"})
}()
