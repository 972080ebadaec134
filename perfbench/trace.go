package main

import (
	"sort"
	"time"
)

// span is one call the benchmark made into a layer: its name, host
// start and end in ns from the trace origin, the span that caused it
// (-1 for an op's root) and the op it belongs to.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; a nil *tracer records nothing, which
// is how untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
	op     int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(name, -1)
}

// spanStats summarises every span of one name: how many, their
// durations, and their self time (duration minus the time covered by
// child spans).
type spanStats struct {
	Name    string    `json:"name"`
	Count   int       `json:"count"`
	TotalUs float64   `json:"total_us"`
	SelfUs  float64   `json:"self_us"`
	P50Us   float64   `json:"p50_us"`
	durs    []float64 // µs
}

func (t *tracer) summary() []*spanStats {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStats{}
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStats{Name: s.Name}
			by[s.Name] = st
		}
		dur := float64(s.End-s.Start) / 1e3
		st.Count++
		st.TotalUs += dur
		st.SelfUs += dur - float64(child[i])/1e3
		st.durs = append(st.durs, dur)
	}
	out := make([]*spanStats, 0, len(by))
	for _, st := range by {
		sort.Float64s(st.durs)
		st.P50Us = quantile(st.durs, 0.5).value
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUs > out[j].SelfUs })
	return out
}

// stat returns the summary of the named spans, or an empty one.
func stat(sum []*spanStats, name string) *spanStats {
	for _, s := range sum {
		if s.Name == name {
			return s
		}
	}
	return &spanStats{Name: name}
}
