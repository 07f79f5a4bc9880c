package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. The spans of one request share
// Req; Parent is the ID of the span that caused it, -1 for the root.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps every finished request's spans in memory until the run ends.
type tracer struct {
	origin  time.Time
	nextReq atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// reqTrace collects the spans of one request. A nil *reqTrace records
// nothing, so untraced code paths pass nil.
type reqTrace struct {
	t     *tracer
	req   uint64
	spans []span
	open  []int // stack of open span IDs
}

// request starts a request's trace; nil tracer means tracing is off.
func (t *tracer) request() *reqTrace {
	if t == nil {
		return nil
	}
	return &reqTrace{t: t, req: t.nextReq.Add(1)}
}

// begin opens a span as a child of the innermost open span.
func (r *reqTrace) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(r.t.origin))})
	r.open = append(r.open, id)
}

// end closes the innermost open span.
func (r *reqTrace) end() {
	if r == nil || len(r.open) == 0 {
		return
	}
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = int64(time.Since(r.t.origin))
}

// finish hands the request's spans to the tracer.
func (r *reqTrace) finish() {
	if r == nil {
		return
	}
	for len(r.open) > 0 {
		r.end()
	}
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.spans...)
	r.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats is the per-name summary of a trace: how many spans, and the
// median duration and median self time (duration minus the part of the
// span's interval its children cover).
type spanStats struct {
	N       int
	P50     time.Duration
	SelfP50 time.Duration
}

// summarize groups spans by name. Spans of one request are contiguous in
// the tracer (finish appends them together), and a child's ID is larger
// than its parent's.
func summarize(spans []span) map[string]spanStats {
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].Req == spans[lo].Req {
			hi++
		}
		req := spans[lo:hi]
		children := map[int][][2]int64{}
		for _, s := range req {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		}
		for _, s := range req {
			d := s.End - s.Start
			durs[s.Name] = append(durs[s.Name], float64(d))
			selfs[s.Name] = append(selfs[s.Name], float64(d-covered(children[s.ID], s.Start, s.End)))
		}
		lo = hi
	}
	out := make(map[string]spanStats, len(durs))
	for name, ds := range durs {
		out[name] = spanStats{N: len(ds), P50: time.Duration(median(ds)),
			SelfP50: time.Duration(median(selfs[name]))}
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}
