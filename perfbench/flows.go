package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"desksearch"
	"desksearch/internal/loadgen"
)

// openShare is the part of a serving workload's measured seconds spent in
// the open loop; the closed loop gets the rest. The closed loop's first
// windows after the open loop were often slow (a small block cache
// refilling), and with 30% of 16 s they moved the median window of
// search_qps by a quarter between runs; half the seconds leaves it enough
// windows, and the open loop more than 10 search samples beyond the p99.
const openShare = 0.5

// buildShare is the part of the build workload's measured seconds spent
// building; the rest serves the built catalog, split between the loops
// like the serving workloads' seconds.
const buildShare = 0.4

// snippetSeed seeds the stream the snippet requests are drawn from.
const snippetSeed = 1

// stack is a serving workload's set-up: the corpus, its heap catalog, the
// directory that catalog was saved to, the directory opened lazily, and
// for fleet the loopback fleet serving it.
type stack struct {
	c     *corpusData
	heap  *desksearch.Catalog
	dir   string
	lazy  *desksearch.Catalog
	fleet *fleet
}

func (s *stack) close() {
	if s.fleet != nil {
		s.fleet.close()
	}
	if s.lazy != nil {
		s.lazy.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// setUpStack generates, builds, saves and opens (and for fleet serves)
// the workload's catalog.
func (r *run) setUpStack(withFleet bool) (*stack, error) {
	return setUp(r, func() (*stack, error) {
		st := &stack{}
		var err error
		if st.c, err = r.generate(); err != nil {
			return nil, err
		}
		if st.heap, err = r.build(st.c); err != nil {
			return nil, err
		}
		if st.dir, err = r.save(st.heap, st.c); err != nil {
			return nil, err
		}
		if st.lazy, err = r.open(st.dir); err != nil {
			return nil, err
		}
		if withFleet {
			if st.fleet, err = r.startFleet(st.dir); err != nil {
				st.close()
				return nil, err
			}
		}
		return st, nil
	}, (*stack).close)
}

func runBuild(r *run) error {
	c, err := setUp(r, r.generate, func(*corpusData) {})
	if err != nil {
		return err
	}
	var cat *desksearch.Catalog
	buildFor := func(d time.Duration) error {
		start := time.Now()
		for n := 0; n < 3 || time.Since(start) < d; n++ {
			cat = nil // let the previous catalog go before the next build
			if cat, err = r.build(c); err != nil {
				return err
			}
		}
		return nil
	}
	r.gcStartMark()
	builds := time.Duration(buildShare * float64(r.seconds))
	if err := buildFor(builds); err != nil {
		return err
	}
	r.gcNote("builds")
	r.measureHeap()

	saves := setupReps
	if r.traced {
		saves = 1
	}
	var dir string
	for i := 0; i < saves; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		if dir, err = r.save(cat, c); err != nil {
			return err
		}
	}
	defer os.RemoveAll(dir)
	if err := r.reopen(dir); err != nil {
		return err
	}

	// The saved directory must round-trip through LoadDir.
	ref, err := desksearch.LoadDir(dir)
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	r.attempted++
	if got, want := ref.Stats(), cat.Stats(); !reflect.DeepEqual(got, want) {
		r.failed++
		r.problemf("build: LoadDir stats %+v, built %+v", got, want)
	}
	sample, err := r.checkSample(c.vocab)
	if err != nil {
		return err
	}
	r.compare("build round trip", sample,
		func(ctx context.Context, op benchOp) (answer, error) { return catalogAnswer(ctx, ref, op, true, false) },
		func(ctx context.Context, op benchOp) (answer, error) { return catalogAnswer(ctx, cat, op, true, false) })

	if err := r.idleUpdates(cat, c); err != nil {
		return err
	}

	// The rest of the measured seconds serves the saved directory, opened
	// as a searcher opens an index after building it, split between the
	// open and the closed loop. Serving the built heap catalog instead
	// left a 180 MB heap live, whose few collector cycles per run moved
	// search_qps and snippet_p50_ms by up to half between runs.
	cat = nil
	if !r.traced {
		c.fs = nil // traced runs keep the corpus for their build probes
	}
	served, err := r.open(dir)
	if err != nil {
		return err
	}
	defer served.Close()
	do := r.catalogDo(served)
	serving := r.seconds - builds
	open := time.Duration(openShare * float64(serving))
	ops, err := r.ops(c.vocab, open)
	if err != nil {
		return err
	}
	if err := r.warmUp(c.vocab, do); err != nil {
		return err
	}
	r.serve(ops, do, serving-open)
	if err := r.snippetPhase(c.vocab, do); err != nil {
		return err
	}
	if r.traced {
		return r.layers(c, dir, served)
	}
	return nil
}

func runQuery(r *run) error {
	st, err := r.setUpStack(false)
	if err != nil {
		return err
	}
	defer st.close()
	return r.serving(st, r.catalogDo(st.lazy), st.lazy, func(sample []benchOp) error {
		ref, err := desksearch.LoadDir(st.dir)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		r.compare("query: OpenDir vs LoadDir", sample,
			func(ctx context.Context, op benchOp) (answer, error) {
				return catalogAnswer(ctx, st.lazy, op, true, false)
			},
			func(ctx context.Context, op benchOp) (answer, error) { return catalogAnswer(ctx, ref, op, true, false) })
		return nil
	})
}

func runFleet(r *run) error {
	st, err := r.setUpStack(true)
	if err != nil {
		return err
	}
	defer st.close()
	f := st.fleet
	err = r.serving(st, r.fleetDo(f), st.lazy, func(sample []benchOp) error {
		r.checkFleet(f, st.lazy, sample)
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	return r.fleetLayers(f)
}

// serving runs a query or fleet workload after set-up: idle update ticks
// on the heap catalog, then the measured serving phases through do, the
// output check, and on a traced run the per-layer probes against probe.
func (r *run) serving(st *stack, do doFunc, probe *desksearch.Catalog, check func([]benchOp) error) error {
	if err := r.idleUpdates(st.heap, st.c); err != nil {
		return err
	}
	st.heap = nil
	if err := r.reopen(st.dir); err != nil {
		return err
	}
	if !r.traced {
		// Only the served state stays live for heap_mb; traced runs keep
		// the corpus for their build probes.
		st.c.fs = nil
	}
	r.measureHeap()
	open := time.Duration(openShare * float64(r.seconds))
	ops, err := r.ops(st.c.vocab, open)
	if err != nil {
		return err
	}
	if err := r.warmUp(st.c.vocab, do); err != nil {
		return err
	}
	if err := r.measureServing(ops, do, r.seconds-open, nil); err != nil {
		return err
	}
	// probe is the served catalog on query, and on fleet the single node,
	// because the broker cannot carry snippet requests (see README.md).
	if err := r.snippetPhase(st.c.vocab, r.catalogDo(probe)); err != nil {
		return err
	}
	sample, err := r.checkSample(st.c.vocab)
	if err != nil {
		return err
	}
	if err := check(sample); err != nil {
		return err
	}
	if r.traced {
		return r.layers(st.c, st.dir, probe)
	}
	return nil
}

// snippetPhase sends the workload's snippet requests through do one at a
// time. A snippet costs hundreds of times a plain query, so a share of
// them large enough for a steady median would saturate the open loop on a
// small machine; they get their own phase instead. The requests are the
// same on every seed: on a heap catalog one costs several times more when
// a large file is among its hits, and a seed's draw of a few dozen moved
// their median by half.
func (r *run) snippetPhase(vocab []string, do doFunc) error {
	ops, err := snippetOps(snippetSeed, vocab, r.w.snippets)
	if err != nil {
		return err
	}
	runtime.GC() // as before the serving loops
	for i, op := range ops {
		s := runOp(do, 3_000_000+int64(i), op, time.Now())
		r.count(s)
		r.lat[classSnippet] = append(r.lat[classSnippet], ms(s.lat))
	}
	return nil
}

// measureServing runs the measured serving phase: the open loop and
// then, untraced, a closed loop for closed (a traced run measures
// layers, not throughput). around, when set, runs beside the phase until
// its stop channel closes.
func (r *run) measureServing(ops opStream, do doFunc, closed time.Duration, around func(stop <-chan struct{}) <-chan error) error {
	if r.traced {
		closed = 0
	}
	var done <-chan error
	stop := make(chan struct{})
	if around != nil {
		done = around(stop)
	}
	r.gcStartMark()
	r.serve(ops, do, closed)
	close(stop)
	r.gcNote("serving")
	if done != nil {
		return <-done
	}
	return nil
}

func runChurn(r *run) error {
	st, err := r.setUpStack(false)
	if err != nil {
		return err
	}
	defer st.close()
	st.lazy.Close() // opened for open_ms only; the workload serves the heap catalog
	st.lazy = nil
	if err := r.reopen(st.dir); err != nil {
		return err
	}
	r.measureHeap()
	open := time.Duration(openShare * float64(r.seconds))
	ops, err := r.ops(st.c.vocab, open)
	if err != nil {
		return err
	}
	do := r.catalogDo(st.heap)
	if err := r.warmUp(st.c.vocab, do); err != nil {
		return err
	}
	w := newWriter(st.c, r.seed)
	writer := func(stop <-chan struct{}) <-chan error {
		done := make(chan error, 1)
		go func() {
			t := time.NewTicker(r.w.tick)
			defer t.Stop()
			for {
				select {
				case <-stop:
					done <- nil
					return
				case <-t.C:
					err := w.change(r.w.tickFiles)
					if err == nil {
						err = r.update(st.heap, st.c.fs)
					}
					if err != nil {
						done <- err
						return
					}
				}
			}
		}()
		return done
	}
	if err := r.measureServing(ops, do, r.seconds-open, writer); err != nil {
		return err
	}
	if err := r.snippetPhase(st.c.vocab, do); err != nil {
		return err
	}

	// After the last tick the catalog must answer like a fresh build of
	// the final tree. File IDs differ, so hits compare as sorted sets.
	fresh, err := desksearch.IndexFS(st.c.fs, ".", r.options(desksearch.Auto))
	if err != nil {
		return fmt.Errorf("fresh build: %w", err)
	}
	sample, err := r.checkSample(st.c.vocab)
	if err != nil {
		return err
	}
	r.compare("churn: updated vs fresh build", sample,
		func(ctx context.Context, op benchOp) (answer, error) {
			return catalogAnswer(ctx, st.heap, op, false, true)
		},
		func(ctx context.Context, op benchOp) (answer, error) {
			return catalogAnswer(ctx, fresh, op, false, true)
		})
	if !r.traced {
		return nil
	}
	r.churnLayers()
	return r.layers(st.c, st.dir, st.heap)
}

// searchLatencies gathers the latencies of every search class: all but
// suggest and snippet requests.
func searchLatencies(lat map[string][]float64) []float64 {
	var out []float64
	for class, v := range lat {
		if class != string(loadgen.ClassSuggest) && class != classSnippet {
			out = append(out, v...)
		}
	}
	return out
}

// fleetLayers derives the broker and worker metrics from the handler
// spans of the traced phase and the broker's /stats.
func (r *run) fleetLayers(f *fleet) error {
	spans := r.tracer().snapshot()
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range named(spans, name) {
			out = append(out, us(s.dur()))
		}
		return out
	}
	brokerSearch := named(spans, "broker /search")
	r.layer["broker.handler_p50_us"] = median(durs("broker /search"))
	r.layer["server.worker_df_p50_us"] = median(durs("worker /internal/df"))
	r.layer["server.worker_search_p50_us"] = median(durs("worker /internal/search"))
	handler := make(map[int64]time.Duration, len(brokerSearch))
	for _, s := range brokerSearch {
		handler[s.Op] = s.dur()
	}
	var overhead []float64
	for _, s := range spans {
		if h, ok := handler[s.Op]; ok && s.Op > 0 && strings.HasPrefix(s.Name, "op.") {
			overhead = append(overhead, us(s.dur()-h))
		}
	}
	r.layer["http.client_overhead_us"] = median(overhead)
	if len(brokerSearch) > 0 {
		r.layer["broker.fanout_per_query"] = float64(len(named(spans, "worker /internal/search"))) / float64(len(brokerSearch))
	}
	stats, err := f.stats()
	if err != nil {
		return err
	}
	if stats.Queries > 0 {
		r.layer["broker.hedge_ratio"] = float64(stats.Hedges) / float64(stats.Queries)
	}
	if stats.Hedges > 0 {
		r.layer["broker.hedge_win_ratio"] = float64(stats.HedgeWins) / float64(stats.Hedges)
	}
	r.layer["broker.failovers"] = float64(stats.Failovers)
	return nil
}

// churnLayers splits the traced phase's op latencies by whether the op
// overlapped an Apply.
func (r *run) churnLayers() {
	spans := r.tracer().snapshot()
	applies := named(spans, "delta.apply")
	var blocked, clear []float64
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "op.") || s.Op <= 0 {
			continue
		}
		if covered(s.Start, s.End, applies) > 0 {
			blocked = append(blocked, ms(s.dur()))
		} else {
			clear = append(clear, ms(s.dur()))
		}
	}
	r.layer["search.blocked_p50_ms"] = median(blocked)
	r.layer["search.clear_p50_ms"] = median(clear)
	r.notef("ops overlapping an Apply: %d, clear of one: %d", len(blocked), len(clear))
}
