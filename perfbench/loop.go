package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"desksearch"
	"desksearch/internal/loadgen"
)

// opTimeout bounds one operation. A failed or timed-out op is recorded as
// taking opTimeout, so it misses every latency limit the benchmark reports.
const opTimeout = 5 * time.Second

// classSnippet labels BM25 ops that also ask for snippets; they get their
// own latency figure because they cost orders of magnitude more.
const classSnippet = "snippet"

// benchOp is one generated operation: a loadgen op, plus whether a BM25 op
// asks for snippets.
type benchOp struct {
	loadgen.Op
	Snippets bool
}

func (o benchOp) class() string {
	if o.Snippets {
		return classSnippet
	}
	return string(o.Class)
}

// genOps draws n ops from loadgen's generator over vocab with DefaultMix.
// The generator can emit a query-language keyword ("or", "and", "not")
// from the vocabulary as a bare term, which the parser rightly rejects;
// such ops are skipped and counted in rejected rather than sent.
func genOps(seed int64, vocab []string, n int) (ops []benchOp, rejected int, err error) {
	gen, err := loadgen.NewGenerator(seed, vocab, loadgen.DefaultMix)
	if err != nil {
		return nil, 0, err
	}
	for len(ops) < n {
		op := benchOp{Op: gen.Next()}
		if op.Class != loadgen.ClassSuggest {
			if _, err := desksearch.ParseQuery(op.Query); err != nil {
				rejected++
				continue
			}
		}
		ops = append(ops, op)
	}
	return ops, rejected, nil
}

// snippetPage is the page size of a snippet request: a snippet's cost
// grows with the hits it is built for, and one results page keeps the
// requests comparable.
const snippetPage = 10

// snippetOps draws n BM25 ops from a stream seeded with seed and turns
// them into snippet requests for one page of hits.
func snippetOps(seed int64, vocab []string, n int) ([]benchOp, error) {
	ops, _, err := genOps(seed, vocab, 20*n) // BM25 is a fifth of DefaultMix
	if err != nil {
		return nil, err
	}
	var out []benchOp
	for _, op := range ops {
		if op.Class == loadgen.ClassBM25 && len(out) < n {
			op.Snippets = true
			op.Limit = snippetPage
			out = append(out, op)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d BM25 ops in a stream of %d", len(out), len(ops))
	}
	return out, nil
}

// doFunc executes one op; id identifies it in the trace.
type doFunc func(ctx context.Context, id int64, op benchOp) error

// sample is one completed op.
type sample struct {
	class string
	// late is how long after its due time the generator dispatched the op.
	late time.Duration
	// lat is the op's latency: from its due time (open loop) or its send
	// time (closed loop) to completion.
	lat time.Duration
	err error
}

// openLoop sends ops on an absolute schedule — op i is due at start +
// i/rate whatever happened before — to at most clients concurrent callers,
// and times each op from its due time, so a stall also charges the ops
// that queued behind it. The dispatcher never waits for a free client; its
// own lateness is reported per op.
func openLoop(ops []benchOp, rate float64, clients int, firstID int64, do doFunc) []sample {
	type job struct {
		i         int
		due, sent time.Time
	}
	// Sized to the number of sends, so a backlog queues here instead of
	// delaying the dispatcher.
	queue := make(chan job, len(ops))
	samples := make([]sample, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				samples[j.i] = runOp(do, firstID+int64(j.i), ops[j.i], j.due)
				samples[j.i].late = j.sent.Sub(j.due)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{i: i, due: due, sent: time.Now()}
	}
	close(queue)
	wg.Wait()
	return samples
}

// qpsWindow is the length of the windows the closed loop's throughput is
// counted in.
const qpsWindow = 500 * time.Millisecond

// closedLoop runs clients callers, each sending its next op (cycling
// through ops) as soon as the previous one returns, until dur has passed.
// It returns the loop's throughput, as windowRate gives it, and the
// samples.
func closedLoop(ops []benchOp, clients int, dur time.Duration, firstID int64, do doFunc) (float64, []sample) {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var ends []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var localEnds []time.Duration
			for time.Since(start) < dur {
				i := next.Add(1) - 1
				local = append(local, runOp(do, firstID+i, ops[int(i)%len(ops)], time.Now()))
				localEnds = append(localEnds, time.Since(start))
			}
			mu.Lock()
			all = append(all, local...)
			ends = append(ends, localEnds...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return windowRate(ends, dur, qpsWindow), all
}

// windowRate is the median, over the whole windows of length w in dur, of
// the ops completed per second in each; ends are the completion times
// since the loop started. A slow stretch of the machine shorter than half
// the loop moves it little. Under one whole window it is the plain rate.
func windowRate(ends []time.Duration, dur, w time.Duration) float64 {
	n := int(dur / w)
	if n == 0 {
		return float64(len(ends)) / dur.Seconds()
	}
	counts := make([]float64, n)
	for _, e := range ends {
		if i := int(e / w); i < n {
			counts[i]++
		}
	}
	return median(counts) / w.Seconds()
}

// runOp executes one op under opTimeout and times it from from.
func runOp(do doFunc, id int64, op benchOp, from time.Time) sample {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	err := do(ctx, id, op)
	s := sample{class: op.class(), lat: time.Since(from), err: err}
	if err != nil {
		s.lat = opTimeout
	}
	return s
}
