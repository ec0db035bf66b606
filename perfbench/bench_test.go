package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"desksearch/internal/loadgen"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed, so percentile must sort
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 means an error is expected
	}{
		{n: 1000, p: 99, want: 990},
		{n: 1100, p: 99, want: 1089},
		{n: 999, p: 99},
		{n: 100, p: 99},
		{n: 100, p: 50, want: 50},
		{n: 20, p: 50, want: 10},
		{n: 19, p: 50},
	} {
		got, err := percentile(samples(tc.n), tc.p)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %g, want an error (fewer than %d beyond)", tc.p, tc.n, got, minBeyond)
		case tc.want != 0 && err != nil:
			t.Errorf("p%g of %d samples: %v", tc.p, tc.n, err)
		case got != tc.want:
			t.Errorf("p%g of %d samples = %g, want %g", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

// An op that stalls its only client must charge the ops queued behind it
// from their due times, while the dispatcher itself stays on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ops := make([]benchOp, 6)
	for i := range ops {
		ops[i] = benchOp{Op: loadgen.Op{Class: loadgen.ClassAnd}}
	}
	const stall = 60 * time.Millisecond
	do := func(ctx context.Context, id int64, op benchOp) error {
		if id == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	samples := openLoop(ops, 1000, 1, 1, do) // one op due every millisecond
	if got := samples[0].lat; got < stall {
		t.Errorf("stalled op latency %v, want at least %v", got, stall)
	}
	for i, s := range samples[1:] {
		due := time.Duration(i+1) * time.Millisecond
		if min := stall - due; s.lat < min {
			t.Errorf("op %d latency %v, want at least %v: it waited behind the stall from its due time", i+1, s.lat, min)
		}
		if s.late > stall/2 {
			t.Errorf("op %d dispatched %v late: the dispatcher must not wait for a busy client", i+1, s.late)
		}
	}
}

func TestClosedLoopCountsEveryOp(t *testing.T) {
	ops := []benchOp{{Op: loadgen.Op{Class: loadgen.ClassOr}}}
	do := func(ctx context.Context, id int64, op benchOp) error {
		time.Sleep(time.Millisecond)
		return nil
	}
	qps, samples := closedLoop(ops, 2, 50*time.Millisecond, 1, do)
	if len(samples) == 0 || qps <= 0 {
		t.Fatalf("closed loop: %d samples at %g ops/s", len(samples), qps)
	}
	if qps > 2*1000 {
		t.Errorf("%g ops/s from two clients of a 1 ms op", qps)
	}
}

func TestWindowRateIsTheMedianWindow(t *testing.T) {
	const w = 100 * time.Millisecond
	// Windows of 4, 1 (a stall) and 3 ops, and one op after the loop's end.
	var ends []time.Duration
	for i, n := range []int{4, 1, 3} {
		for j := 0; j < n; j++ {
			ends = append(ends, time.Duration(i)*w+time.Duration(j+1)*time.Millisecond)
		}
	}
	ends = append(ends, 3*w+time.Millisecond)
	if got := windowRate(ends, 3*w, w); got != 30 {
		t.Errorf("rate %g ops/s, want the middle window's 3 ops per 0.1 s", got)
	}
	if got := windowRate(ends[:5], w/2, w); got != 100 {
		t.Errorf("rate %g ops/s under one window, want 5 ops per 0.05 s", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 60}}, 80},
		{"overlapping counted once", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 10, End: 50}, {Start: 20, End: 30}}, 60},
		{"clipped to the parent", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"unsorted", []span{{Start: 60, End: 70}, {Start: 5, End: 15}, {Start: 65, End: 80}}, 70},
		{"outside", []span{{Start: 100, End: 200}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerRecordsParentsAndNilIsANoOp(t *testing.T) {
	var off *tracer
	off.begin("x", 0, 0).end()
	if off.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("layer", root.id, 7)
	c := child.end()
	r := root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || c.Parent != r.ID || c.Op != 7 || r.Parent != 0 {
		t.Fatalf("spans %+v", spans)
	}
	if c.Start < r.Start || c.End > r.End {
		t.Errorf("child %+v outside its parent %+v", c, r)
	}
	if got := named(spans, "layer"); len(got) != 1 || got[0].ID != c.ID {
		t.Errorf("named = %+v", got)
	}
}

func TestMetricNames(t *testing.T) {
	if err := checkDefs(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a", "query_p50_ms", "core.speedup.join", "9x", "a-b_c.d"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_a", ".a", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "MB/s", "bytes/byte"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and result-line metrics
// the benchmark defines, with the same units.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var steady []*workload
	for _, w := range workloads {
		if w.unsteady == "" {
			steady = append(steady, w)
		}
	}
	if len(spec.Workloads) != len(steady) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d steady ones", len(spec.Workloads), len(steady))
	}
	for i, w := range spec.Workloads {
		if w.Name != steady[i].name || w.Why != steady[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, steady[i].name, steady[i].why)
		}
	}
	for _, group := range []struct {
		listed []metric
		layer  bool
	}{{spec.EndToEnd, false}, {spec.PerLayer, true}} {
		defs := resultSet(group.layer)
		if len(group.listed) != len(defs) {
			t.Errorf("layer=%t: BENCHMARK.json lists %d metrics, the result line carries %d", group.layer, len(group.listed), len(defs))
			continue
		}
		for i, m := range group.listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !group.layer && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
			}
		}
	}
}
