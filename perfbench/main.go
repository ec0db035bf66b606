// Command perfbench is the repository's benchmark: one process that runs
// one seeded workload through the public functions of the desksearch
// stack, checks the answers, and prints its metrics. See README.md for
// the workloads, the metrics and the layers each one measures.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: a JSON object with
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the per-layer ones, and the run's
// spans are written next to the work directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(benchMain()) }

func benchMain() int {
	name := flag.String("workload", "", "workload to run: build, query, fleet or churn")
	seed := flag.Int64("seed", 1, "seed of the corpus, the op streams and the writer")
	seconds := flag.Int("seconds", 10, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workRoot := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for saved catalogs and span files")
	flag.Parse()

	w := findWorkload(*name)
	switch {
	case w == nil:
		return fail(fmt.Errorf("unknown workload %q", *name))
	case *seconds < 1:
		return fail(fmt.Errorf("--seconds must be at least 1"))
	case *trace != 0 && *trace != 1:
		return fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if err := checkDefs(); err != nil {
		return fail(err)
	}
	work, err := workDir(*workRoot, w.name, *seed)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	r := newRun(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, work)
	tr := newTracer()
	if r.traced {
		r.tr.Store(tr)
	}
	start := time.Now()
	if err := w.run(r); err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	values := r.endToEnd()

	out := os.Stdout
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d clients=%d wall=%.1fs\n",
		w.name, *seed, *seconds, *trace, r.clients, time.Since(start).Seconds())
	fmt.Fprintf(out, "why: %s\n", w.why)
	if w.unsteady != "" {
		fmt.Fprintf(out, "not in BENCHMARK.json: %s\n", w.unsteady)
	}
	fmt.Fprintf(out, "params: %s\n", w.params())
	fmt.Fprintf(out, "note: ops issued %d, generator ops skipped as unparseable %d\n", r.opsIssued, r.opsRejected)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	metrics := values
	if r.traced {
		metrics = r.layer
		path := filepath.Join(*workRoot, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.snapshot()), path)
	}
	for _, d := range metricDefs {
		v, ok := metrics[d.name]
		if d.layer != r.traced || (d.only != "" && d.only != w.name) {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problemf("metric %s was not measured (%v)", d.name, v)
			metrics[d.name] = 0 // JSON has no NaN
			continue
		}
		if d.layer {
			fmt.Fprintf(out, "layer %-30s %14.6g %-10s -> %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(out, "metric %-16s %14.6g %-10s %s\n", d.name, v, d.unit, d.moves)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}

	res := result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range resultSet(r.traced) {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

// endToEnd computes the end-to-end metrics from the run's samples,
// recording a problem for any figure that could not be measured.
func (r *run) endToEnd() map[string]float64 {
	v := map[string]float64{
		"setup_s":        median(r.setups),
		"build_mb_s":     median(r.builds),
		"save_s":         median(r.saves),
		"disk_ratio":     r.diskRatio,
		"open_ms":        median(r.opens),
		"search_qps":     r.qps,
		"update_p50_ms":  median(r.updates),
		"heap_mb":        r.heapMB,
		"query_p50_ms":   median(searchLatencies(r.lat)),
		"suggest_p50_ms": median(r.lat["suggest"]),
		"snippet_p50_ms": median(r.lat[classSnippet]),
	}
	if r.attempted > 0 {
		v["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	search := searchLatencies(r.lat)
	p99, err := percentile(search, 99)
	if err != nil && !r.traced {
		r.problemf("query_p99_ms: %v", err)
	}
	v["query_p99_ms"] = p99
	r.notef("samples: search %d, suggest %d, snippet %d, updates %d, builds %d, set-ups %d",
		len(search), len(r.lat["suggest"]), len(r.lat[classSnippet]), len(r.updates), len(r.builds), len(r.setups))
	if late, err := percentile(r.late, 99); err == nil {
		if r.traced {
			r.layer["loadgen.late_p99_ms"] = late
		} else {
			r.notef("generator lateness p99 %.3f ms", late)
		}
	} else {
		r.problemf("lateness p99: %v", err)
	}
	if !r.traced {
		for _, d := range resultSet(false) {
			if x := v[d.name]; x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				r.problemf("%s = %v: no measurement", d.name, x)
			}
		}
	}
	return v
}

// params renders the workload's fixed parameters for the report.
func (w *workload) params() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale=1/%.0f shards=%d cache_bytes=%d rate=%g/s snippets=%d tick_files=%d",
		1/w.scale, w.shards, w.cacheBytes, w.rate, w.snippets, w.tickFiles)
	if w.tick > 0 {
		fmt.Fprintf(&b, " tick=%s", w.tick)
	} else {
		fmt.Fprintf(&b, " idle_ticks=%d", w.idleTicks)
	}
	return b.String()
}
