package main

import (
	"fmt"
	"sort"
	"strings"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/telemetry"
)

// counters is one reading of every modeled counter the system exposes:
// per-core cycles, block-engine stats and TLB/L1 statistics, the shared
// L2, and the telemetry registry.
type counters struct {
	cycles       uint64
	block        machine.BlockStats
	tlb, l1, l2  [2]uint64 // hits, misses
	snap         telemetry.Snapshot
	shardsServed []uint64
}

func readCounters(ms []*machine.Machine, reg *telemetry.Registry) counters {
	var c counters
	for _, m := range ms {
		for _, core := range m.Cores {
			c.cycles += core.CPU.Cycles
			b := core.BlockStats()
			c.block.Compiled += b.Compiled
			c.block.Rejected += b.Rejected
			c.block.Instrs += b.Instrs
			c.block.GuardBails += b.GuardBails
			c.block.Revalidations += b.Revalidations
			c.block.Invalidations += b.Invalidations
			c.tlb[0] += core.TLB.Hits
			c.tlb[1] += core.TLB.Misses
			c.l1[0] += core.L1.Hits
			c.l1[1] += core.L1.Misses
		}
		c.l2[0] += m.L2.Hits
		c.l2[1] += m.L2.Misses
	}
	c.snap = reg.Snapshot()
	for i := 0; ; i++ {
		v, ok := c.snap.Counters[fmt.Sprintf("fleet.shard%d.served", i)]
		if !ok {
			break
		}
		c.shardsServed = append(c.shardsServed, v)
	}
	return c
}

// modeled computes the modeled ledger of one deterministic segment of
// ops operations from the readings before (b) and after (a) it. Every
// value derives from simulated state only, so two runs with the same
// seed must produce identical maps; histogram percentiles are
// cumulative since boot (set-up, warm-up and the segment).
func modeled(b, a counters, ops int) map[string]float64 {
	n := float64(ops)
	d := func(name string) float64 { return float64(a.snap.Counters[name] - b.snap.Counters[name]) }
	hmean := func(name string) float64 {
		ha, hb := a.snap.Histograms[name], b.snap.Histograms[name]
		return ratio(float64(ha.Sum-hb.Sum), float64(ha.Count-hb.Count))
	}
	hsum := func(name string) float64 {
		return float64(a.snap.Histograms[name].Sum - b.snap.Histograms[name].Sum)
	}
	missRatio := func(x, y [2]uint64) float64 {
		hits, misses := float64(x[0]-y[0]), float64(x[1]-y[1])
		return ratio(misses, hits+misses)
	}
	m := map[string]float64{
		"cycles_per_op":                       float64(a.cycles-b.cycles) / n,
		"smcall.retries_per_op":               d("smcall.retries") / n,
		"sm.ring.send_batch_mean":             hmean("sm.ring.send.batch"),
		"sm.ring.recv_batch_mean":             hmean("sm.ring.recv.batch"),
		"sm.ring.parks_per_op":                d("sm.ring.parks") / n,
		"sm.ring.wakes_per_op":                d("sm.ring.wakes") / n,
		"sm.ring.parkwait_cycles_p99":         a.snap.Histograms["sm.ring.parkwait.cycles"].P99,
		"sm.bulk.descs_per_op":                hsum("sm.bulk.descs") / n,
		"sm.bulk.bytes_per_op":                d("sm.bulk.bytes") / n,
		"os.gateway.waves_per_op":             d("os.gateway.waves") / n,
		"os.gateway.chunk_mean":               hmean("os.gateway.chunk.size"),
		"os.gateway.request_cycles_p50":       a.snap.Histograms["os.gateway.request.cycles"].P50,
		"os.gateway.request_cycles_p99":       a.snap.Histograms["os.gateway.request.cycles"].P99,
		"machine.block.instrs_per_op":         float64(a.block.Instrs-b.block.Instrs) / n,
		"machine.block.compiled_per_kop":      float64(a.block.Compiled-b.block.Compiled) * 1e3 / n,
		"machine.block.rejected_per_kop":      float64(a.block.Rejected-b.block.Rejected) * 1e3 / n,
		"machine.block.invalidations_per_kop": float64(a.block.Invalidations-b.block.Invalidations) * 1e3 / n,
		"machine.block.revalidations_per_kop": float64(a.block.Revalidations-b.block.Revalidations) * 1e3 / n,
		"machine.block.guard_bails_per_kop":   float64(a.block.GuardBails-b.block.GuardBails) * 1e3 / n,
		"machine.tlb.miss_ratio":              missRatio(a.tlb, b.tlb),
		"machine.l1.miss_ratio":               missRatio(a.l1, b.l1),
		"machine.l2.miss_ratio":               missRatio(a.l2, b.l2),
	}
	var calls, retries float64
	for name := range a.snap.Counters {
		if !strings.HasPrefix(name, "sm.call.") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".count"):
			calls += d(name)
		case strings.HasSuffix(name, ".retries"):
			retries += d(name)
		}
	}
	m["sm.calls_per_op"] = calls / n
	m["sm.retries_per_op"] = retries / n
	for _, c := range sampledCalls {
		m["sm.call."+c+".per_op"] = d("sm.call."+c+".count") / n
	}
	home, spill := float64(a.snap.Counters["fleet.route.home"]), float64(a.snap.Counters["fleet.route.spill"])
	m["fleet.spill_ratio"] = ratio(spill, home+spill)
	m["fleet.shard_skew"] = 0
	if len(a.shardsServed) > 0 {
		var sum, max float64
		for i := range a.shardsServed {
			v := float64(a.shardsServed[i] - b.shardsServed[i])
			sum += v
			if v > max {
				max = v
			}
		}
		m["fleet.shard_skew"] = ratio(max, sum/float64(len(a.shardsServed)))
	}
	return m
}

// sameLedger reports the first key on which two modeled ledgers differ.
func sameLedger(x, y map[string]float64) (string, bool) {
	keys := make([]string, 0, len(x))
	for k := range x {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if yv, ok := y[k]; !ok || yv != x[k] {
			return fmt.Sprintf("%s: %v vs %v", k, x[k], y[k]), false
		}
	}
	return "", len(x) == len(y)
}

// counterDeltas lists every counter that moved between two readings.
func counterDeltas(b, a counters) map[string]uint64 {
	d := map[string]uint64{"cycles": a.cycles - b.cycles,
		"block.compiled": a.block.Compiled - b.block.Compiled, "block.rejected": a.block.Rejected - b.block.Rejected,
		"block.instrs": a.block.Instrs - b.block.Instrs, "block.guard_bails": a.block.GuardBails - b.block.GuardBails,
		"block.revalidations": a.block.Revalidations - b.block.Revalidations,
		"block.invalidations": a.block.Invalidations - b.block.Invalidations,
		"tlb.hits":            a.tlb[0] - b.tlb[0], "tlb.misses": a.tlb[1] - b.tlb[1],
		"l1.hits": a.l1[0] - b.l1[0], "l1.misses": a.l1[1] - b.l1[1],
		"l2.hits": a.l2[0] - b.l2[0], "l2.misses": a.l2[1] - b.l2[1]}
	for k, v := range a.snap.Counters {
		if delta := v - b.snap.Counters[k]; delta != 0 {
			d["registry."+k] = delta
		}
	}
	return d
}
