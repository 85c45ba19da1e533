package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one registry from many goroutines; run
// with -race this is the data-race check for the whole metrics layer.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Inc()
				r.Counter("shared").Add(2)
				r.Gauge("last").Set(int64(i))
				r.Timer("t").Observe(time.Duration(i) * time.Microsecond)
				r.Histogram("h", 10, 100, 1000).ObserveInt(i)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := r.Counter("shared").Value(), int64(workers*iters*3); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	ts := r.Timer("t").Stats()
	if ts.Count != workers*iters {
		t.Errorf("timer count = %d, want %d", ts.Count, workers*iters)
	}
	if want := (time.Duration(iters-1) * time.Microsecond).Seconds(); ts.MaxSec != want {
		t.Errorf("timer max = %v, want %v", ts.MaxSec, want)
	}
	hs := r.Histogram("h").Stats()
	if hs.Count != workers*iters {
		t.Errorf("histogram count = %d, want %d", hs.Count, workers*iters)
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same counter name gave distinct instances")
	}
	if r.Histogram("h", 1, 2) != r.Histogram("h", 5, 6) {
		t.Error("same histogram name gave distinct instances")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	// Exactly-on-bound values land in the bucket they bound (v <= bound);
	// below-first goes to bucket 0; above-last goes to the overflow bucket.
	for _, v := range []float64{-5, 0.5, 1} { // bucket 0: v <= 1
		h.Observe(v)
	}
	h.Observe(1.0001)     // bucket 1
	h.Observe(10)         // bucket 1
	h.Observe(99.9)       // bucket 2
	h.Observe(100)        // bucket 2
	h.Observe(100.01)     // overflow
	h.Observe(1e12)       // overflow
	h.Observe(math.NaN()) // dropped

	s := h.Stats()
	want := []int64{3, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9 (NaN must be dropped)", s.Count)
	}
	if s.Min != -5 || s.Max != 1e12 {
		t.Errorf("min/max = %g/%g, want -5/1e12", s.Min, s.Max)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {5, 5}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
	NewHistogram(got...) // must be strictly increasing
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("b.gauge").Set(7)
	r.Timer("c.timer").Observe(time.Millisecond)
	r.Histogram("d.h", 1, 2).Observe(1.5)
	s := r.Snapshot().String()
	for _, want := range []string{"a.count", "b.gauge", "c.timer", "d.h"} {
		if !contains(s, want) {
			t.Errorf("snapshot string missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
