package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made across a layer boundary.
// Spans of one benchmark op share Op; Parent links a call to the span
// that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has begun but not ended.
type open struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// begin starts a span named name under parent for benchmark op op.
func (t *tracer) begin(name string, parent, op int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.ids.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// end records the span and returns it.
func (o open) end() span {
	if o.t == nil {
		return span{}
	}
	s := span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name,
		Start: int64(o.start.Sub(o.t.epoch)), End: int64(time.Since(o.t.epoch))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
	return s
}

// record stores a span timed by the caller.
func (t *tracer) record(name string, parent, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [start, end) the children's intervals
// cover, counting time where children overlap once.
func covered(start, end int64, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, start), min(c.End, end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) time.Duration {
	return s.dur() - covered(s.Start, s.End, children)
}
