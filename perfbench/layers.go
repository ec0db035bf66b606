package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"desksearch"
	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/loadgen"
	"desksearch/internal/postings"
	"desksearch/internal/search"
	"desksearch/internal/segment"
	"desksearch/internal/shard"
	"desksearch/internal/tokenize"
	"desksearch/internal/walk"
)

// probeOps is the single-client probe stream of a traced run: ops from a
// seeded stream of their own, with a few snippet requests.
func (r *run) probeOps(vocab []string) ([]benchOp, error) {
	ops, _, err := genOps(r.seed^0x9e0be, vocab, 300)
	if err != nil {
		return nil, err
	}
	markSnippets(ops, 5)
	return ops, nil
}

// layers measures the per-layer metrics every workload reports, from the
// run's corpus c, its saved directory and probe, the in-process catalog
// the workload serves or builds. It runs after the measured phases.
func (r *run) layers(c *corpusData, dir string, probe *desksearch.Catalog) error {
	col := func(i int) float64 {
		v := make([]float64, len(r.coreMS))
		for j, t := range r.coreMS {
			v[j] = t[i]
		}
		return median(v)
	}
	r.layer["core.filename_ms"] = col(0)
	r.layer["core.extract_update_ms"] = col(1)
	r.layer["core.shard_ms"] = col(2)
	r.layer["runtime.alloc_bytes_per_byte"] = median(r.allocPerByte)
	r.layer["delta.diff_ms"] = median(r.diffMS)
	r.layer["delta.apply_ms"] = median(r.applyMS)
	r.layer["delta.postings_removed"] = median(r.removed)
	r.layer["delta.postings_added"] = median(r.added)

	ops, err := r.probeOps(c.vocab)
	if err != nil {
		return err
	}
	for _, step := range []func() error{
		func() error { return r.stages(c) },
		func() error { return r.speedups(c) },
		func() error { return r.openLayers(dir) },
		func() error { r.classProbe(probe, ops); return nil },
		func() error { return r.segmentProbe(dir, ops) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// stages times the paper's Table 1 components sequentially and in
// isolation, as core.MeasureStages runs them: the traversal, reading
// every file, reading plus term extraction, and inserting pre-extracted
// term blocks into a fresh index.
func (r *run) stages(c *corpusData) error {
	tr := r.tracer()
	timed := func(name string, f func() error) error {
		sp := tr.begin(name, 0, 0)
		start := time.Now()
		err := f()
		r.layer[name] = ms(time.Since(start))
		sp.end()
		return err
	}
	var files []walk.FileRef
	if err := timed("walk.list_ms", func() (err error) {
		files, err = walk.List(c.fs, ".")
		return err
	}); err != nil {
		return err
	}
	ex := extract.New(c.fs, extract.Options{Tokenize: tokenize.Default, Positions: true})
	if err := timed("extract.read_ms", func() error {
		for _, f := range files {
			if _, err := ex.ReadOnly(f.Path); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := timed("extract.scan_ms", func() error {
		for _, f := range files {
			if _, err := ex.ScanOnly(f.Path); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	blocks := make([]extract.TermBlock, len(files))
	for i, f := range files {
		b, err := ex.File(f.Path, postings.FileID(i))
		if err != nil {
			return err
		}
		blocks[i] = b
	}
	return timed("index.insert_ms", func() error {
		ix := index.New(1 << 12)
		for _, b := range blocks {
			if b.Positions != nil {
				ix.AddBlockPositional(b.File, b.Terms, b.Positions)
			} else {
				ix.AddBlock(b.File, b.Terms, b.Counts)
			}
		}
		return nil
	})
}

// speedups builds c once with each of the paper's designs and reports
// each parallel one's speed-up over Sequential.
func (r *run) speedups(c *corpusData) error {
	tr := r.tracer()
	took := func(impl desksearch.Implementation, name string) (float64, error) {
		sp := tr.begin("desksearch.IndexFS "+name, 0, 0)
		start := time.Now()
		_, err := desksearch.IndexFS(c.fs, ".", r.options(impl))
		d := time.Since(start).Seconds()
		sp.end()
		return d, err
	}
	base, err := took(desksearch.Sequential, "sequential")
	if err != nil {
		return err
	}
	for _, d := range []struct {
		impl desksearch.Implementation
		name string
	}{{desksearch.SharedIndex, "shared"}, {desksearch.ReplicatedJoin, "join"}, {desksearch.ReplicatedSearch, "replicated"}} {
		t, err := took(d.impl, d.name)
		if err != nil {
			return err
		}
		r.layer["core.speedup."+d.name] = base / t
	}
	return nil
}

// openLayers times shard.OpenDir of dir and segment.Open of each of its
// segments, the two halves of desksearch.OpenDir.
func (r *run) openLayers(dir string) error {
	tr := r.tracer()
	var shardMS, segMS []float64
	for i := 0; i < 3; i++ {
		sp := tr.begin("shard.OpenDir", 0, 0)
		set, err := shard.OpenDir(dir, r.w.cacheBytes)
		s := sp.end()
		if err != nil {
			return err
		}
		set.Close()
		shardMS = append(shardMS, ms(s.dur()))
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.dsix"))
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no segments in %s (%v)", dir, err)
	}
	for _, p := range paths {
		sp := tr.begin("segment.Open", 0, 0)
		rd, err := segment.Open(p, nil)
		s := sp.end()
		if err != nil {
			return err
		}
		rd.Close()
		segMS = append(segMS, ms(s.dur()))
	}
	r.layer["shard.open_ms"] = median(shardMS)
	r.layer["segment.open_ms"] = median(segMS)
	return nil
}

// classProbe runs ops one at a time against cat through the public API and
// reports each class's median call time.
func (r *run) classProbe(cat *desksearch.Catalog, ops []benchOp) {
	do := r.catalogDo(cat)
	by := make(map[string][]float64)
	for i, op := range ops {
		s := runOp(do, 1_000_000+int64(i), op, time.Now())
		r.count(s)
		by[s.class] = append(by[s.class], us(s.lat))
	}
	for _, c := range append(loadgen.Classes, classSnippet) {
		r.layer["search."+string(c)+"_us"] = median(by[string(c)])
	}
}

// segmentProbe rebuilds the stack desksearch.OpenDir builds —
// shard.OpenDir, then search.NewEngine over the set's partitions — with
// every partition and posting iterator wrapped in a recorder, and runs
// ops through it one at a time. Per search op it splits the wall time
// into the part some segment call covers and the rest (search's own
// evaluation), and counts iterator calls and block decodes.
func (r *run) segmentProbe(dir string, ops []benchOp) error {
	tr := r.tracer()
	set, err := shard.OpenDir(dir, r.w.cacheBytes)
	if err != nil {
		return err
	}
	defer set.Close()
	var current atomic.Int64
	parts := set.Partitions()
	probes := make([]*segProbe, len(parts))
	wrapped := make([]index.Partition, len(parts))
	for i, p := range parts {
		probes[i] = &segProbe{Partition: p, tr: tr, parent: &current}
		wrapped[i] = probes[i]
	}
	engine := search.NewEngine(set.Files(), wrapped...)
	decodes := func() (n uint64) {
		for _, rd := range set.Readers() {
			n += rd.BlockDecodes()
		}
		return n
	}
	var searchSelf, segSelf, iters, blocks []float64
	ctx := context.Background()
	for i, op := range ops {
		q := tr.begin("search.Engine "+op.class(), 0, 2_000_000+int64(i))
		current.Store(q.id)
		before := decodes()
		err := engineDo(ctx, engine, op)
		qs := q.end()
		var calls []span
		var n int64
		for _, p := range probes {
			c, k := p.take()
			calls = append(calls, c...)
			n += k
		}
		if err != nil {
			return fmt.Errorf("segment probe %q: %w", op.Query, err)
		}
		if op.class() == classSnippet || op.Class == loadgen.ClassSuggest {
			continue
		}
		self := selfTime(qs, calls)
		searchSelf = append(searchSelf, us(self))
		segSelf = append(segSelf, us(qs.dur()-self))
		iters = append(iters, float64(n))
		blocks = append(blocks, float64(decodes()-before))
	}
	r.layer["search.self_us"] = median(searchSelf)
	r.layer["segment.self_us"] = median(segSelf)
	r.layer["segment.iter_calls_per_query"] = median(iters)
	r.layer["segment.decodes_per_query"] = median(blocks)
	r.layer["segment.cache_used_mb"] = mib(set.Cache().Bytes())

	// Tracing overhead: each search op once through the recorded stack and
	// once through the same stack unwrapped, alternating which goes first
	// so neither always finds the cache warmed by the other.
	plain := search.NewEngine(set.Files(), parts...)
	var ratios []float64
	for i, op := range ops {
		if op.class() == classSnippet || op.Class == loadgen.ClassSuggest {
			continue
		}
		var traced, untraced time.Duration
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				q := tr.begin("search.Engine "+op.class(), 0, 2_000_000+int64(i))
				current.Store(q.id)
				err = engineDo(ctx, engine, op)
				traced = q.end().dur()
				for _, p := range probes {
					p.take()
				}
			} else {
				start := time.Now()
				err = engineDo(ctx, plain, op)
				untraced = time.Since(start)
			}
			if err != nil {
				return fmt.Errorf("overhead probe %q: %w", op.Query, err)
			}
		}
		ratios = append(ratios, float64(traced)/float64(untraced))
	}
	r.layer["trace.overhead_pct"] = (median(ratios) - 1) * 100
	return nil
}

// engineDo runs op directly on a search engine, as desksearch.Catalog
// would.
func engineDo(ctx context.Context, e *search.Engine, op benchOp) error {
	if op.Class == loadgen.ClassSuggest {
		_, err := e.Suggest(ctx, op.Query, op.Limit)
		return err
	}
	q, err := search.Parse(op.Query)
	if err != nil {
		return err
	}
	req := search.Request{Query: q, Limit: op.Limit, Ranking: search.RankCoordination, Snippets: op.Snippets}
	if op.Rank == "bm25" || op.Snippets {
		req.Ranking = search.RankBM25
	}
	_, err = e.Query(ctx, req)
	return err
}

// segProbe records every call into one partition and its iterators: the
// partition calls as spans under the current query, and the intervals of
// all segment-layer work (callbacks into the engine excluded).
type segProbe struct {
	index.Partition
	tr     *tracer
	parent *atomic.Int64

	mu    sync.Mutex
	calls []span
	iters int64
}

func (p *segProbe) interval(start, end time.Time) {
	s := span{Start: int64(start.Sub(p.tr.epoch)), End: int64(end.Sub(p.tr.epoch))}
	p.mu.Lock()
	p.calls = append(p.calls, s)
	p.mu.Unlock()
}

func (p *segProbe) call(name string, start time.Time) {
	end := time.Now()
	p.interval(start, end)
	p.tr.record(name, p.parent.Load(), 0, start, end)
}

// take returns and clears the intervals and iterator calls recorded since
// the last take.
func (p *segProbe) take() ([]span, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, n := p.calls, p.iters
	p.calls, p.iters = nil, 0
	return c, n
}

func (p *segProbe) Lookup(term string) *postings.List {
	defer p.call("segment.Lookup", time.Now())
	return p.Partition.Lookup(term)
}

func (p *segProbe) Iterator(term string) index.PostingIterator {
	defer p.call("segment.Iterator", time.Now())
	it := p.Partition.Iterator(term)
	if it == nil {
		return nil
	}
	return &iterProbe{PostingIterator: it, p: p}
}

func (p *segProbe) DocFreq(term string) int {
	defer p.call("segment.DocFreq", time.Now())
	return p.Partition.DocFreq(term)
}

func (p *segProbe) Docs() *postings.List {
	defer p.call("segment.Docs", time.Now())
	return p.Partition.Docs()
}

func (p *segProbe) TermsFrom(from string, yield func(term string, df int) bool) {
	first := time.Now()
	seg := first
	p.Partition.TermsFrom(from, func(term string, df int) bool {
		p.interval(seg, time.Now())
		ok := yield(term, df)
		seg = time.Now()
		return ok
	})
	p.interval(seg, time.Now())
	p.tr.record("segment.TermsFrom", p.parent.Load(), 0, first, time.Now())
}

func (p *segProbe) Range(f func(term string, l *postings.List) bool) {
	first := time.Now()
	seg := first
	p.Partition.Range(func(term string, l *postings.List) bool {
		p.interval(seg, time.Now())
		ok := f(term, l)
		seg = time.Now()
		return ok
	})
	p.interval(seg, time.Now())
	p.tr.record("segment.Range", p.parent.Load(), 0, first, time.Now())
}

// iterProbe times the calls that advance a posting iterator or locate its
// frequencies.
type iterProbe struct {
	index.PostingIterator
	p *segProbe
}

func (it *iterProbe) done(start time.Time) {
	p := it.p
	s := span{Start: int64(start.Sub(p.tr.epoch)), End: int64(time.Since(p.tr.epoch))}
	p.mu.Lock()
	p.calls = append(p.calls, s)
	p.iters++
	p.mu.Unlock()
}

func (it *iterProbe) Next() bool {
	defer it.done(time.Now())
	return it.PostingIterator.Next()
}

func (it *iterProbe) SeekGE(id postings.FileID) bool {
	defer it.done(time.Now())
	return it.PostingIterator.SeekGE(id)
}

func (it *iterProbe) Count() uint32 {
	defer it.done(time.Now())
	return it.PostingIterator.Count()
}
