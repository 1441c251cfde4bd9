package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is 0 for a root span;
// spans of one traced operation share Trace.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. Spans opened with
// Begin nest explicitly through their parent argument. Spans recorded
// from inside the program (the signature-verifier wrapper) cannot be
// handed a parent, so they attach to the recorder's current span: the
// benchmark drives one traced operation at a time and sets the current
// span around each stage call.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	open  map[int64]int // span ID → index in spans, until Finish

	ids   atomic.Int64
	cur   atomic.Int64 // parent for spans recorded by Leaf
	trace atomic.Int64 // trace of the current span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), open: make(map[int64]int)}
}

func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

// NewTrace returns a fresh trace identifier.
func (r *Recorder) NewTrace() int64 { return r.ids.Add(1) }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name string, parent, trace int64) int64 {
	id := r.ids.Add(1)
	start := r.now()
	r.mu.Lock()
	r.open[id] = len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start})
	r.mu.Unlock()
	return id
}

// Finish closes a span opened by Begin.
func (r *Recorder) Finish(id int64) {
	end := r.now()
	r.mu.Lock()
	if i, ok := r.open[id]; ok {
		r.spans[i].End = end
		delete(r.open, id)
	}
	r.mu.Unlock()
}

// Stage runs fn inside a span that is also the current span, so leaf
// spans recorded while fn runs become its children. Stages do not nest
// with other concurrently running stages.
func (r *Recorder) Stage(name string, parent, trace int64, fn func()) int64 {
	id := r.Begin(name, parent, trace)
	prevCur, prevTrace := r.cur.Load(), r.trace.Load()
	r.cur.Store(id)
	r.trace.Store(trace)
	fn()
	r.cur.Store(prevCur)
	r.trace.Store(prevTrace)
	r.Finish(id)
	return id
}

// Leaf records a finished span under the current span. It records
// nothing when no stage is current, so code shared with untraced paths
// pays only the check.
func (r *Recorder) Leaf(name string, start, end time.Time) {
	parent := r.cur.Load()
	if parent == 0 {
		return
	}
	s := Span{
		ID: r.ids.Add(1), Parent: parent, Trace: r.trace.Load(), Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of every finished span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// TraceSpans returns the finished spans of one trace.
func (r *Recorder) TraceSpans(trace int64) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans {
		if s.Trace == trace && s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes every finished span as one JSON object per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the intervals cover, counting time
// covered by several overlapping intervals once.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	started := false
	for _, x := range clipped {
		if !started || x[0] > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = x[0], x[1], true
			continue
		}
		curB = max(curB, x[1])
	}
	if started {
		total += curB - curA
	}
	return total
}

// ChildCover returns, for each span with children, the wall time inside
// the span during which at least one child was running. Children that run
// in parallel are counted once over the time they overlap.
func ChildCover(spans []Span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(children))
	for _, s := range spans {
		if iv, ok := children[s.ID]; ok {
			out[s.ID] = covered(s.Start, s.End, iv)
		}
	}
	return out
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval its child spans cover (ChildCover), so a parent's self time
// is never negative.
func SelfTimes(spans []Span) map[int64]int64 {
	cover := ChildCover(spans)
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - cover[s.ID]
	}
	return self
}

// traceSummary aggregates the spans of one trace by name.
type traceSummary struct {
	// Dur and Self sum durations and self times per span name; Count
	// counts spans per name.
	Dur, Self map[string]int64
	Count     map[string]int
	// Cover is, per parent span name, the wall its children covered.
	Cover map[string]int64
}

// Summarize aggregates the spans of one trace.
func Summarize(mine []Span) traceSummary {
	cover := ChildCover(mine)
	sum := traceSummary{Dur: map[string]int64{}, Self: map[string]int64{}, Count: map[string]int{}, Cover: map[string]int64{}}
	for _, s := range mine {
		sum.Dur[s.Name] += s.Dur()
		sum.Self[s.Name] += s.Dur() - cover[s.ID]
		sum.Count[s.Name]++
		sum.Cover[s.Name] += cover[s.ID]
	}
	return sum
}
