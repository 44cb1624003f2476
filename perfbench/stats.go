package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: a p99 needs at least 1,000 samples.
const minBeyond = 10

// percentileLadder is the set of percentiles highestPercentile picks from.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supports reports whether n samples leave at least minBeyond samples
// above percentile p.
func supports(n int, p float64) bool {
	return n-rank(n, p) >= minBeyond
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples; the tolerance keeps decimal percentiles such as 99.9 exact.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// highestPercentile is the highest ladder percentile n samples support, or
// 0 when they support none.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// namedPercentile is percentile for a percentile the benchmark reports by
// name; it fails when the samples do not support it, so that a run too
// short for its metrics fails loudly instead of printing a tail it did not
// observe.
func namedPercentile(name string, xs []float64, p float64) (float64, error) {
	if !supports(len(xs), p) {
		return 0, fmt.Errorf("%s: %d samples cannot support p%g (need %d); lengthen the run",
			name, len(xs), p, int(math.Ceil(minBeyond*100/(100-p))))
	}
	return percentile(xs, p), nil
}

// median is the 50th percentile by linear interpolation, for small sample
// sets such as set-up repetitions.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitWindow divides a window's samples into n parts of equal duration by
// completion time (at, in seconds into a window of elapsed seconds).
func splitWindow(ms, at []float64, elapsed float64, n int) [][]float64 {
	parts := make([][]float64, n)
	for i, t := range at {
		p := min(int(t/elapsed*float64(n)), n-1)
		parts[p] = append(parts[p], ms[i])
	}
	return parts
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// span is one timed call into a layer. Spans of one request or write share
// Req; Parent is the index of the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, req int, f func()) int {
	i := t.begin(name, parent, req)
	f()
	t.end(i)
	return i
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns every span's self time: its duration minus the
// durations of its child spans of the same request. The benchmark times
// each layer by calling it again on the same input, so a child span is a
// re-execution of the inner call rather than an interval nested inside the
// parent; subtracting durations is what both cases have in common.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if p := s.Parent; p >= 0 && spans[p].Req == s.Req {
			self[p] -= s.dur()
		}
	}
	return self
}

// layerTimes groups span durations (self times when self is set) by span
// name, in microseconds.
func layerTimes(spans []span, self bool) map[string][]float64 {
	st := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		d := s.dur()
		if self {
			d = st[i]
		}
		out[s.Name] = append(out[s.Name], float64(d.Nanoseconds())/1e3)
	}
	return out
}
