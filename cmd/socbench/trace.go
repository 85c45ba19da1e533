package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// spanRecord is one harness span as the JSONL trace stores it. Times are
// seconds since the process epoch; Parent is 0 for a root span.
type spanRecord struct {
	Run    string  `json:"run"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer is the harness's clock and, on a traced pass, its span store.
// The wall clock is read through an obs span that is never closed for good
// (Span.End only reports the elapsed time on a registry-less collector),
// because obs owns the wall clock in this repository (lintgo GO002).
type tracer struct {
	epoch *obs.Span
	keep  bool   // record spans (the traced pass)
	run   string // run id stamped on every record
	next  atomic.Int64

	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer {
	return &tracer{epoch: obs.New(nil, nil).StartSpan("socbench.epoch")}
}

// now is the time elapsed since the tracer was made.
func (t *tracer) now() time.Duration { return t.epoch.End() }

// tspan is an open harness span.
type tspan struct {
	t          *tracer
	id, parent int64
	name       string
	start      time.Duration
}

// start opens a span under parent (nil for a root span).
func (t *tracer) start(name string, parent *tspan) *tspan {
	s := &tspan{t: t, name: name, start: t.now()}
	if parent != nil {
		s.parent = parent.id
	}
	if t.keep {
		s.id = t.next.Add(1)
	}
	return s
}

// end closes the span, records it on a traced pass, and returns its length.
func (s *tspan) end() time.Duration {
	end := s.t.now()
	if s.t.keep {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, spanRecord{
			Run: s.t.run, ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start.Seconds(), End: end.Seconds(),
		})
		s.t.mu.Unlock()
	}
	return end - s.start
}

// records returns the recorded spans in start order.
func (t *tracer) records() []spanRecord {
	t.mu.Lock()
	out := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// spansJSONL renders spans one JSON object per line.
func spansJSONL(spans []spanRecord) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		enc.Encode(s) // a spanRecord always encodes
	}
	return b.Bytes()
}

// spanRow aggregates every span of one name.
type spanRow struct {
	name      string
	count     int
	inclusive float64
	self      float64
}

// spanTable aggregates spans by name: count, inclusive time, and self
// time — a span's length minus the part of it that its children cover
// (children that overlap each other, like concurrent requests, count once).
func spanTable(spans []spanRecord) []spanRow {
	children := map[int64][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*spanRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &spanRow{name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.count++
		r.inclusive += dur
		r.self += dur - covered(s, children[s.ID])
	}
	out := make([]spanRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].inclusive != out[j].inclusive {
			return out[i].inclusive > out[j].inclusive
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRecord, kids []spanRecord) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
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
	return total
}

// formatSpanTable renders the aggregate as a fixed-width text table.
func formatSpanTable(rows []spanRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %13s %13s\n", "span", "count", "inclusive_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %8d %13.6f %13.6f\n", r.name, r.count, r.inclusive, r.self)
	}
	return b.String()
}
