package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"desksearch"
	"desksearch/internal/corpus"
	"desksearch/internal/loadgen"
	"desksearch/internal/vfs"
)

// setupReps is how many times an untraced run sets up; setup_s is their
// median. A traced run sets up once.
const setupReps = 3

// checkOps is how many seeded ops each output check compares.
const checkOps = 150

// run is the state of one benchmark invocation.
type run struct {
	w       *workload
	seed    int64
	seconds time.Duration
	traced  bool
	clients int
	work    string
	// tr is the active tracer: nil outside a traced phase.
	tr atomic.Pointer[tracer]

	// Samples behind the end-to-end metrics.
	setups, builds, saves, opens, updates []float64
	lat                                   map[string][]float64
	late                                  []float64
	qps                                   float64
	diskRatio, heapMB                     float64
	attempted, failed                     int
	// problems lists failed output checks.
	problems []string
	// notes are report lines: sample counts and side observations.
	notes []string

	// Samples behind the per-layer metrics (traced runs only).
	coreMS                 [][3]float64
	allocPerByte           []float64
	diffMS, applyMS        []float64
	removed, added         []float64
	layer                  map[string]float64
	gcStart, cpuStart      float64
	opsRejected, opsIssued int
}

func newRun(w *workload, seed int64, seconds time.Duration, traced bool, work string) *run {
	return &run{
		w: w, seed: seed, seconds: seconds, traced: traced, work: work,
		clients: runtime.NumCPU(),
		lat:     make(map[string][]float64),
		layer:   make(map[string]float64),
	}
}

func (r *run) tracer() *tracer { return r.tr.Load() }

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// corpusData is a generated corpus in memory.
type corpusData struct {
	fs    *vfs.MemFS
	files []corpus.FileStat
	vocab []string
	bytes int64
}

// generate writes the workload's corpus, seeded by the run's seed, into a
// fresh MemFS.
func (r *run) generate() (*corpusData, error) {
	spec := corpus.PaperSpec().Scale(r.w.scale)
	fs := vfs.NewMemFS()
	st, err := corpus.Generate(spec, fs)
	if err != nil {
		return nil, err
	}
	return &corpusData{fs: fs, files: st.Files, vocab: corpus.BuildVocabulary(spec), bytes: st.TotalBytes}, nil
}

func (r *run) options(impl desksearch.Implementation) desksearch.Options {
	return desksearch.Options{Implementation: impl, Positions: true, Shards: r.w.shards}
}

// build indexes c with the default implementation, recording throughput
// and, on a traced run, the pipeline's phase timings and allocation.
func (r *run) build(c *corpusData) (*desksearch.Catalog, error) {
	// Each timed build, save, open and idle update starts from a collected
	// heap, so garbage an earlier phase left does not land in its timing.
	runtime.GC()
	var before runtime.MemStats
	if r.traced {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	cat, err := desksearch.IndexFS(c.fs, ".", r.options(desksearch.Auto))
	took := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	r.builds = append(r.builds, mib(c.bytes)/took.Seconds())
	if r.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.allocPerByte = append(r.allocPerByte, float64(after.TotalAlloc-before.TotalAlloc)/float64(c.bytes))
		fn, eu, _, sh, _ := cat.Timings()
		r.coreMS = append(r.coreMS, [3]float64{fn * 1e3, eu * 1e3, sh * 1e3})
	}
	return cat, nil
}

// save writes cat to a fresh directory under the work directory.
func (r *run) save(cat *desksearch.Catalog, c *corpusData) (string, error) {
	dir, err := os.MkdirTemp(r.work, r.w.name+"-")
	if err != nil {
		return "", err
	}
	runtime.GC()
	start := time.Now()
	if err := cat.SaveDir(dir); err != nil {
		return "", fmt.Errorf("save: %w", err)
	}
	r.saves = append(r.saves, time.Since(start).Seconds())
	size, err := dirBytes(dir)
	if err != nil {
		return "", err
	}
	r.diskRatio = float64(size) / float64(c.bytes)
	return dir, nil
}

// reopens is how many extra times a run opens its saved directory, so
// open_ms is the median of many short calls.
const reopens = 12

// reopen opens dir reopens times, closing each catalog again.
func (r *run) reopen(dir string) error {
	for i := 0; i < reopens; i++ {
		cat, err := r.open(dir)
		if err != nil {
			return err
		}
		cat.Close()
	}
	return nil
}

// open opens dir lazily with the workload's block-cache budget.
func (r *run) open(dir string) (*desksearch.Catalog, error) {
	runtime.GC()
	start := time.Now()
	cat, err := desksearch.OpenDir(dir, desksearch.Options{BlockCacheBytes: r.w.cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	r.opens = append(r.opens, ms(time.Since(start)))
	return cat, nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// setUp runs once setupReps times on an untraced run (once on a traced
// one), timing each into setup_s, releasing every result but the last.
func setUp[T any](r *run, once func() (T, error), release func(T)) (T, error) {
	reps := setupReps
	if r.traced {
		reps = 1
	}
	var last T
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(last)
		}
		start := time.Now()
		v, err := once()
		if err != nil {
			return last, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		last = v
	}
	return last, nil
}

// measureHeap records the live heap after a forced collection.
func (r *run) measureHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapMB = mib(int64(m.HeapAlloc))
}

func mib(n int64) float64 { return float64(n) / (1 << 20) }

// update runs one writer tick's Catalog.Update. A traced tick calls Diff
// and Apply separately, with a span around each.
func (r *run) update(cat *desksearch.Catalog, fs vfs.FS) error {
	tr := r.tracer()
	if tr == nil {
		start := time.Now()
		_, err := cat.Update(fs, ".")
		r.updates = append(r.updates, ms(time.Since(start)))
		return err
	}
	tick := tr.begin("catalog.update", 0, 0)
	diff := tr.begin("delta.diff", tick.id, 0)
	cs, err := cat.Diff(fs, ".")
	ds := diff.end()
	if err != nil {
		return err
	}
	apply := tr.begin("delta.apply", tick.id, 0)
	st, err := cat.Apply(fs, cs)
	as := apply.end()
	ts := tick.end()
	r.updates = append(r.updates, ms(ts.dur()))
	r.diffMS = append(r.diffMS, ms(ds.dur()))
	r.applyMS = append(r.applyMS, ms(as.dur()))
	r.removed = append(r.removed, float64(st.PostingsRemoved))
	r.added = append(r.added, float64(st.PostingsAdded))
	return err
}

// idleUpdates runs the workload's idle update ticks back to back on cat.
func (r *run) idleUpdates(cat *desksearch.Catalog, c *corpusData) error {
	w := newWriter(c, r.seed)
	for i := 0; i < r.w.idleTicks; i++ {
		if err := w.change(r.w.tickFiles); err != nil {
			return err
		}
		runtime.GC()
		if err := r.update(cat, c.fs); err != nil {
			return fmt.Errorf("update: %w", err)
		}
	}
	return nil
}

// writer changes a corpus the way a user's files change: each change
// rewrites, adds or deletes one small file (half, a quarter and a quarter
// of the time), with fresh Zipf-drawn content from the corpus vocabulary.
type writer struct {
	c    *corpusData
	rng  *rand.Rand
	zipf *rand.Zipf
	live []string
	next int
}

func newWriter(c *corpusData, seed int64) *writer {
	rng := rand.New(rand.NewSource(seed ^ 0xc4a2e))
	w := &writer{c: c, rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(c.vocab)-1))}
	for _, f := range c.files {
		if !strings.HasPrefix(f.Path, "large-") {
			w.live = append(w.live, f.Path)
		}
	}
	return w
}

func (w *writer) change(n int) error {
	for i := 0; i < n; i++ {
		switch k := w.rng.Intn(4); {
		case k < 2:
			if err := w.c.fs.WriteFile(w.live[w.rng.Intn(len(w.live))], w.content()); err != nil {
				return err
			}
		case k == 2 || len(w.live) < 2:
			path := fmt.Sprintf("churn/new-%06d.txt", w.next)
			w.next++
			if err := w.c.fs.WriteFile(path, w.content()); err != nil {
				return err
			}
			w.live = append(w.live, path)
		default:
			j := w.rng.Intn(len(w.live))
			if err := w.c.fs.Remove(w.live[j]); err != nil {
				return err
			}
			w.live[j] = w.live[len(w.live)-1]
			w.live = w.live[:len(w.live)-1]
		}
	}
	return nil
}

func (w *writer) content() []byte {
	size := 2<<10 + w.rng.Intn(14<<10)
	var b strings.Builder
	for b.Len() < size {
		b.WriteString(w.c.vocab[w.zipf.Uint64()])
		b.WriteByte(' ')
	}
	return []byte(b.String())
}

// catalogDo executes ops in process against cat, through loadgen's
// CatalogTarget (snippet requests, which it does not model, through
// Catalog.Query), with a span around each call on a traced phase.
func (r *run) catalogDo(cat *desksearch.Catalog) doFunc {
	target := &loadgen.CatalogTarget{Cat: cat}
	return func(ctx context.Context, id int64, op benchOp) error {
		sp := r.tracer().begin("op."+op.class(), 0, id)
		defer sp.end()
		if op.Snippets {
			_, err := cat.Query(ctx, snippetQuery(op))
			return err
		}
		return target.Do(ctx, op.Op)
	}
}

func snippetQuery(op benchOp) desksearch.Query {
	return desksearch.Query{Text: op.Query, Limit: op.Limit, Ranking: desksearch.RankBM25, Snippets: true}
}

// closedOps is how many ops the closed loop draws from: more than it
// completes in a run on 2 cores (about 12,000 on build), so the rare
// costly ops of a seed's draw average out. Cycling the open loop's 1,600
// ops instead moved query's search_qps by up to a fifth between seeds.
const closedOps = 16000

// opStream is a run's serving ops: the open loop's, then the closed
// loop's, drawn from one seeded stream.
type opStream struct{ open, closed []benchOp }

// ops draws the serving stream: enough ops for the open loop at the
// workload's rate over open, then closedOps for the closed loop.
func (r *run) ops(vocab []string, open time.Duration) (opStream, error) {
	n := int(r.w.rate * open.Seconds())
	ops, rejected, err := genOps(r.seed, vocab, n+closedOps)
	r.opsRejected += rejected
	r.opsIssued += len(ops)
	if err != nil {
		return opStream{}, err
	}
	return opStream{open: ops[:n], closed: ops[n:]}, nil
}

// serve runs the measured serving phases: an open loop over ops.open at
// the workload's rate, then (when closed > 0) a closed loop of r.clients
// callers over ops.closed for closed.
func (r *run) serve(ops opStream, do doFunc, closed time.Duration) {
	// Both loops start from a collected heap, so the collector's cycles
	// fall at the same points of the op stream on every run.
	runtime.GC()
	for _, s := range openLoop(ops.open, r.w.rate, r.clients, 1, do) {
		r.count(s)
		r.lat[s.class] = append(r.lat[s.class], ms(s.lat))
		r.late = append(r.late, ms(s.late))
	}
	if closed > 0 {
		runtime.GC()
		qps, samples := closedLoop(ops.closed, r.clients, closed, int64(len(ops.open))+1, do)
		r.qps = qps
		for _, s := range samples {
			r.count(s)
		}
	}
}

func (r *run) count(s sample) {
	r.attempted++
	if s.err != nil {
		r.failed++
		if r.failed <= 5 {
			r.notef("op failed: %s: %v", s.class, s.err)
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %s: %v\n", s.class, s.err)
		}
	}
}

// warmUp runs 300 ops of a stream of their own once, untimed, so caches
// fill and lazy set-up finishes before anything is measured.
func (r *run) warmUp(vocab []string, do doFunc) error {
	ops, _, err := genOps(r.seed^0x3a7, vocab, 300)
	for i, op := range ops {
		runOp(do, -int64(i+1), op, time.Now())
	}
	return err
}

// gcStartMark and gcFrac measure the share of CPU time the Go runtime
// spent on garbage collection between the two calls.
func (r *run) gcStartMark() { r.gcStart, r.cpuStart = gcCPU() }

func (r *run) gcFrac() float64 {
	gc, cpu := gcCPU()
	if cpu <= r.cpuStart {
		return 0
	}
	return (gc - r.gcStart) / (cpu - r.cpuStart)
}

// gcNote reports the GC share since gcStartMark: as a per-layer metric on a
// traced run, as a note otherwise.
func (r *run) gcNote(phase string) {
	if r.traced {
		r.layer["runtime.gc_cpu_frac"] = r.gcFrac()
	} else {
		r.notef("gc cpu share during %s: %.4f", phase, r.gcFrac())
	}
}

func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// workDir returns a fresh scratch directory for the run's catalogs.
func workDir(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-%d", workload, seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
