// Package obs is the observability layer of the reproduction: metrics
// (counters, gauges, timers, histograms) collected in a Registry, a
// structured Event trace emitted through a pluggable Sink (JSONL and
// human-readable text implementations), and end-of-run Manifests that make
// every experiment reproducible and diffable.
//
// The package is dependency-free (standard library only) and designed so
// the instrumented hot paths pay nothing when observability is disabled:
// every method is safe on a nil receiver and does no work there, so code
// resolves its instruments once
//
//	backtracks := col.Counter("atpg.backtracks")
//
// and then calls backtracks.Add(1) unconditionally — a nil-check branch
// when disabled, one atomic add when enabled. Per-event trace emission,
// whose variadic fields would otherwise allocate, is guarded by
// Collector.Tracing.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe on a nil receiver (no-ops) and safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric. Nil-safe and concurrency-safe like
// Counter.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add shifts the value by n (negative to decrement), for gauges tracking
// a level — queue depth, busy workers — rather than a sampled reading.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the last set value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates durations: call count, total and maximum.
type Timer struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.total.Add(int64(d))
	for {
		cur := t.max.Load()
		if int64(d) <= cur || t.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Since records the duration elapsed since start, for use as
// defer timer.Since(time.Now()), and returns it (also on a nil timer).
func (t *Timer) Since(start time.Time) time.Duration {
	d := time.Since(start)
	t.Observe(d)
	return d
}

// TimerStats is a point-in-time snapshot of a Timer.
type TimerStats struct {
	Count    int64   `json:"count"`
	TotalSec float64 `json:"total_sec"`
	MaxSec   float64 `json:"max_sec"`
}

// Stats snapshots the timer.
func (t *Timer) Stats() TimerStats {
	if t == nil {
		return TimerStats{}
	}
	return TimerStats{
		Count:    t.count.Load(),
		TotalSec: time.Duration(t.total.Load()).Seconds(),
		MaxSec:   time.Duration(t.max.Load()).Seconds(),
	}
}

// Histogram counts observations into fixed buckets: bucket i counts values
// v with v <= Bounds[i] (and above Bounds[i-1]); one overflow bucket counts
// values above the last bound. NaN observations are dropped.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram over the given strictly increasing
// bucket upper bounds. It panics on unsorted or empty bounds — histogram
// construction is a programming decision, not runtime input.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// ExpBounds returns n strictly increasing bounds start, start*factor,
// start*factor^2, ... — the usual shape for size and duration histograms.
func ExpBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: v <= bounds[i]
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ObserveInt records an integer value.
func (h *Histogram) ObserveInt(v int) { h.Observe(float64(v)) }

// HistogramStats is a point-in-time snapshot of a Histogram.
type HistogramStats struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	// P50, P95 and P99 are the bucket-interpolated quantile estimates of
	// Quantile, precomputed by Stats so every rendering of the snapshot —
	// the -metrics text dump, the manifest JSON, /metricsz — reports
	// latency summaries without recomputing them.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Mean returns the mean observation, or 0 when empty.
func (s HistogramStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts
// by linear interpolation inside the bucket holding the target rank — the
// usual histogram-quantile estimate. The tracked Min and Max bound the
// first bucket, the overflow bucket and the returned value, so estimates
// never stray outside the observed range. Every input yields a finite,
// well-defined value: an empty snapshot returns 0, a single observation
// (or any all-equal stream) returns that value exactly for every q, and
// a NaN q clamps to Min rather than poisoning the interpolation.
func (s HistogramStats) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if s.Min == s.Max {
		// One observation, or many equal ones: every quantile IS that
		// value. Answering exactly also sidesteps the degenerate
		// zero-width interpolation interval.
		return s.Min
	}
	if q <= 0 || math.IsNaN(q) {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := s.Min
		if i > 0 && s.Bounds[i-1] > lo {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) && s.Bounds[i] < hi {
			hi = s.Bounds[i]
		}
		if hi <= lo {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Max
}

// Stats snapshots the histogram.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Registry names and owns a process-wide set of metrics. Lookup methods
// create on first use and return the same instrument for the same name
// thereafter; all methods are safe on a nil receiver (returning nil
// instruments, which are themselves no-ops) and for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later lookups of an existing histogram ignore the bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.histograms[name] = h
	}
	return h
}

// merge folds another timer's accumulated state into t.
func (t *Timer) merge(o *Timer) {
	if t == nil || o == nil {
		return
	}
	t.count.Add(o.count.Load())
	t.total.Add(o.total.Load())
	m := o.max.Load()
	for {
		cur := t.max.Load()
		if m <= cur || t.max.CompareAndSwap(cur, m) {
			return
		}
	}
}

// merge folds another histogram's counts into h. Mismatched bucket shapes
// collapse into the overflow bucket rather than dropping observations.
func (h *Histogram) merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	s := o.Stats()
	if s.Count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(s.Counts) == len(h.counts) {
		for i, c := range s.Counts {
			h.counts[i] += c
		}
	} else {
		h.counts[len(h.counts)-1] += s.Count
	}
	if h.count == 0 || s.Min < h.min {
		h.min = s.Min
	}
	if h.count == 0 || s.Max > h.max {
		h.max = s.Max
	}
	h.count += s.Count
	h.sum += s.Sum
}

// Merge folds every metric of other into r: counters and timers accumulate
// (timer max takes the larger maximum), histograms add bucket counts, and
// gauges adopt other's last value — so callers merging several forked
// registries should do it serially, in a fixed order, to keep gauge
// outcomes deterministic. Either registry may be nil (no-op). Other is not
// modified.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.Lock()
	counters := make(map[string]*Counter, len(other.counters))
	for k, v := range other.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(other.gauges))
	for k, v := range other.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(other.timers))
	for k, v := range other.timers {
		timers[k] = v
	}
	histograms := make(map[string]*Histogram, len(other.histograms))
	for k, v := range other.histograms {
		histograms[k] = v
	}
	other.mu.Unlock()

	for name, c := range counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range gauges {
		r.Gauge(name).Set(g.Value())
	}
	for name, t := range timers {
		r.Timer(name).merge(t)
	}
	for name, h := range histograms {
		h.mu.Lock()
		bounds := append([]float64(nil), h.bounds...)
		h.mu.Unlock()
		r.Histogram(name, bounds...).merge(h)
	}
}

// Snapshot is a point-in-time copy of every metric in a Registry, in the
// shape the run manifest embeds.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Timers     map[string]TimerStats     `json:"timers,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the current state of every metric. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(timers) > 0 {
		s.Timers = make(map[string]TimerStats, len(timers))
		for k, v := range timers {
			s.Timers[k] = v.Stats()
		}
	}
	if len(histograms) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(histograms))
		for k, v := range histograms {
			s.Histograms[k] = v.Stats()
		}
	}
	return s
}

// String renders the snapshot as a sorted human-readable block, one metric
// per line — the output of the CLIs' -metrics flag.
func (s Snapshot) String() string {
	var out []string
	for name, v := range s.Counters {
		out = append(out, fmt.Sprintf("counter  %-36s %d", name, v))
	}
	for name, v := range s.Gauges {
		out = append(out, fmt.Sprintf("gauge    %-36s %d", name, v))
	}
	for name, v := range s.Timers {
		out = append(out, fmt.Sprintf("timer    %-36s count=%d total=%.3fs max=%.3fs",
			name, v.Count, v.TotalSec, v.MaxSec))
	}
	for name, v := range s.Histograms {
		out = append(out, fmt.Sprintf("histo    %-36s count=%d mean=%.1f p50=%.4g p95=%.4g p99=%.4g min=%g max=%g",
			name, v.Count, v.Mean(), v.P50, v.P95, v.P99, v.Min, v.Max))
	}
	sort.Strings(out)
	res := ""
	for _, l := range out {
		res += l + "\n"
	}
	return res
}
