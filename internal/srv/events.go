package srv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// eventBuf is the bounded per-job ring of rendered trace events behind
// GET /v1/jobs/{id}/events. It is an obs.Sink: the job's collector fans
// every span/phase event into it (alongside the daemon's -trace sink,
// when one is attached), and SSE subscribers replay the buffered prefix
// then tail live events.
//
// Emission never blocks and never grows: a full ring drops its oldest
// event, so a slow or disconnected subscriber costs the job nothing —
// the subscriber sees an explicit gap instead. Events are addressed by
// an absolute sequence number; event i (when still buffered) lives at
// ring[i % len(ring)].
type eventBuf struct {
	mu      sync.Mutex
	ring    [][]byte
	seq     int64 // events emitted over the job's lifetime
	closed  bool
	changed chan struct{} // closed and remade on every emit/close
}

func newEventBuf(capacity int) *eventBuf {
	return &eventBuf{ring: make([][]byte, capacity), changed: make(chan struct{})}
}

// Emit implements obs.Sink: render the event once (the same JSON line a
// JSONL trace file carries) and append it to the ring.
func (b *eventBuf) Emit(e obs.Event) {
	line := e.AppendJSON(nil)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.ring[b.seq%int64(len(b.ring))] = line
	b.seq++
	close(b.changed)
	b.changed = make(chan struct{})
	b.mu.Unlock()
}

// Err implements obs.Sink; ring writes cannot fail.
func (b *eventBuf) Err() error { return nil }

// close marks the stream complete (the job finished) and wakes every
// subscriber so it can drain the tail and stop.
func (b *eventBuf) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.changed)
		b.changed = make(chan struct{})
	}
	b.mu.Unlock()
}

// since returns the buffered events at and after cursor: the batch, the
// sequence number of its first event, the cursor for the next call, how
// many events the ring had already dropped past the cursor, whether the
// stream is complete, and the channel that closes on the next change.
// The channel is captured under the same lock as the scan, so a waiter
// can never miss a wake-up between since and its select.
func (b *eventBuf) since(cursor int64) (batch [][]byte, first, next, dropped int64, done bool, changed <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lo := b.seq - int64(len(b.ring))
	if lo < 0 {
		lo = 0
	}
	if cursor < lo {
		dropped = lo - cursor
		cursor = lo
	}
	first = cursor
	for i := cursor; i < b.seq; i++ {
		batch = append(batch, b.ring[i%int64(len(b.ring))])
	}
	return batch, first, b.seq, dropped, b.closed, b.changed
}

// handleJobEvents is GET /v1/jobs/{id}/events: a Server-Sent Events
// stream of the job's trace. A subscriber attaching mid-job first
// receives the buffered prefix (its "id:" lines carry the absolute event
// sequence numbers), then live events as the job emits them; a
// subscriber attaching after completion receives the retained tail. The
// stream ends with an "event: done" record carrying the job's final
// status. Periodic ": keep-alive" comments keep idle connections open
// through proxies while a job sits in the queue.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	keepAlive := time.NewTicker(sseKeepAlive)
	defer keepAlive.Stop()

	var cursor int64
	for {
		batch, first, next, dropped, done, changed := j.events.since(cursor)
		if dropped > 0 {
			fmt.Fprintf(w, "event: gap\ndata: {\"dropped\":%d}\n\n", dropped)
		}
		for i, line := range batch {
			fmt.Fprintf(w, "id: %d\nevent: trace\ndata: %s\n\n", first+int64(i), line)
		}
		if dropped > 0 || len(batch) > 0 {
			fl.Flush()
		}
		cursor = next
		if done {
			// The ring is closed after the job completes, so the snapshot
			// below is final and the buffer is fully drained.
			state, _, jerr, cached, _ := j.snapshot()
			fin := map[string]any{"job": j.id, "status": state.String(), "trace": j.tc.Trace}
			if cached {
				fin["cache"] = "hit"
			}
			if jerr != nil {
				fin["error"] = jerr.Error()
			}
			payload, _ := json.Marshal(fin)
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", payload)
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-keepAlive.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		}
	}
}
