package srv

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// traceRecord is one parsed SSE record from /v1/jobs/{id}/events.
type traceRecord struct {
	id    int64
	event string // "trace", "gap", "done"
	data  map[string]any
}

// readSSE consumes an event stream until its terminal "done" record (or
// EOF) and returns every record in arrival order.
func readSSE(t *testing.T, r io.Reader) []traceRecord {
	t.Helper()
	var (
		recs []traceRecord
		cur  traceRecord
	)
	cur.id = -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // record boundary
			if cur.event != "" {
				recs = append(recs, cur)
				if cur.event == "done" {
					return recs
				}
			}
			cur = traceRecord{id: -1}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("SSE data not JSON: %v in %q", err, line)
			}
		case strings.HasPrefix(line, ":"): // keep-alive comment
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return recs
}

// collectEvents drains a completed job's ring into parsed JSON records.
func collectEvents(t *testing.T, j *job) []map[string]any {
	t.Helper()
	batch, _, _, dropped, done, _ := j.events.since(0)
	if !done {
		t.Fatal("collectEvents on a live job")
	}
	if dropped != 0 {
		t.Fatalf("ring dropped %d events", dropped)
	}
	var out []map[string]any
	for _, line := range batch {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("ring line not JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

// TestJobTraceSpansAdmissionToEngine is the tentpole contract: one job's
// events form a single trace spanning admission, queue, worker and the
// engine phases, with parent links tying the span tree together.
func TestJobTraceSpansAdmissionToEngine(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	body, _ := json.Marshal(map[string]any{"bench": tinyBench, "async": true})
	rec := post(t, h, "/v1/atpg", string(body))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async atpg: %d %s", rec.Code, rec.Body)
	}
	var acc struct {
		Job   string `json:"job"`
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || acc.Trace == "" {
		t.Fatalf("202 body %q carries no trace", rec.Body)
	}
	j := s.lookup(acc.Job)
	<-j.done
	// Completion closes j.done before the ring closes; wait for the ring.
	waitRingClosed(t, j)

	events := collectEvents(t, j)
	names := make(map[string]bool)
	spansByName := make(map[string]string)
	for _, e := range events {
		name, _ := e["event"].(string)
		names[name] = true
		if tr, _ := e["trace"].(string); tr != acc.Trace {
			t.Errorf("event %q trace = %v, want %q", name, e["trace"], acc.Trace)
		}
		if sp, _ := e["span"].(string); sp == "" {
			t.Errorf("event %q has no span", name)
		} else {
			spansByName[name] = sp
		}
	}
	for _, want := range []string{"srv.admit", "srv.queue.begin", "srv.queue.end", "srv.job.begin", "srv.job.end", "atpg.generate.begin", "atpg.generate.end"} {
		if !names[want] {
			t.Errorf("trace missing %q; got %v", want, names)
		}
	}
	if events[0]["event"] != "srv.admit" {
		t.Errorf("first event = %v, want srv.admit", events[0]["event"])
	}
	// Parent links: admission is the root (no parent); queue and work
	// spans hang off it; the engine run shares the work span.
	root := spansByName["srv.admit"]
	for _, e := range events {
		name, _ := e["event"].(string)
		parent, _ := e["parent"].(string)
		switch name {
		case "srv.admit":
			if parent != "" {
				t.Errorf("srv.admit has parent %q", parent)
			}
		case "srv.queue.begin", "srv.queue.end", "srv.job.begin", "srv.job.end":
			if parent != root {
				t.Errorf("%s parent = %q, want root span %q", name, parent, root)
			}
		}
	}
	if spansByName["atpg.generate.begin"] != spansByName["srv.job.begin"] {
		t.Errorf("engine events span %q, want the work span %q",
			spansByName["atpg.generate.begin"], spansByName["srv.job.begin"])
	}

	// /v1/jobs/{id} reports the same trace and the events URL.
	jrec := get(t, h, "/v1/jobs/"+acc.Job)
	var st jobStatus
	if err := json.Unmarshal(jrec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Trace != acc.Trace || st.Events != "/v1/jobs/"+acc.Job+"/events" {
		t.Errorf("job status trace/events = %q/%q", st.Trace, st.Events)
	}
}

// waitRingClosed blocks until the job's event ring is marked done.
func waitRingClosed(t *testing.T, j *job) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		_, _, _, _, done, changed := j.events.since(0)
		if done {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatal("event ring never closed")
		}
	}
}

// TestTraceDeterministicAcrossServers is the reproducibility contract:
// two independent daemons fed the same request sequence mint identical
// trace/span IDs and the same event-name sequence — only timestamps and
// durations may differ.
func TestTraceDeterministicAcrossServers(t *testing.T) {
	run := func() (string, []map[string]any) {
		s, _ := newTestServer(t, Config{Workers: 1})
		h := s.Handler()
		body, _ := json.Marshal(map[string]any{"builtin": "d695", "async": true})
		rec := post(t, h, "/v1/tdv", string(body))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async tdv: %d %s", rec.Code, rec.Body)
		}
		var acc struct {
			Job   string `json:"job"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		j := s.lookup(acc.Job)
		<-j.done
		waitRingClosed(t, j)
		return acc.Trace, collectEvents(t, j)
	}
	traceA, eventsA := run()
	traceB, eventsB := run()
	if traceA != traceB {
		t.Fatalf("identical request sequences minted different traces: %q vs %q", traceA, traceB)
	}
	if len(eventsA) != len(eventsB) {
		t.Fatalf("event counts differ: %d vs %d", len(eventsA), len(eventsB))
	}
	for i := range eventsA {
		for _, field := range []string{"event", "trace", "span", "parent", "job", "kind"} {
			if eventsA[i][field] != eventsB[i][field] {
				t.Errorf("event %d field %q differs: %v vs %v",
					i, field, eventsA[i][field], eventsB[i][field])
			}
		}
	}
}

// TestSSEMidJobSubscribe is the satellite streaming test: a client that
// subscribes while the job is still queued receives the buffered prefix
// (admission, queue begin) and then the live tail, ids monotone from 0,
// ending in the done record.
func TestSSEMidJobSubscribe(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pin the single worker so the target job sits in the queue while we
	// subscribe.
	release := make(chan struct{})
	blocker, _, err := s.submit(work{
		kind: "tdv", key: "blocker",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			<-release
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"builtin": "d695", "async": true, "nocache": true})
	resp, err := http.Post(ts.URL+"/v1/tdv", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		Job    string `json:"job"`
		Events string `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Subscribe while queued; the stream must begin with the buffered
	// prefix (srv.admit is event 0) even though it was emitted before we
	// connected.
	stream, err := http.Get(ts.URL + acc.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	done := make(chan []traceRecord, 1)
	go func() { done <- readSSE(t, stream.Body) }()
	// Let the subscriber attach before the job runs, then unblock.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-blocker.done

	var recs []traceRecord
	select {
	case recs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never reached done")
	}
	if len(recs) < 4 {
		t.Fatalf("too few records: %+v", recs)
	}
	next := int64(0)
	for _, r := range recs[:len(recs)-1] {
		if r.event != "trace" {
			t.Fatalf("unexpected %q record mid-stream: %+v", r.event, r)
		}
		if r.id != next {
			t.Fatalf("ids not monotone from 0: got %d, want %d", r.id, next)
		}
		next++
	}
	if recs[0].data["event"] != "srv.admit" {
		t.Errorf("first streamed event = %v, want srv.admit", recs[0].data["event"])
	}
	last := recs[len(recs)-1]
	if last.event != "done" || last.data["job"] != acc.Job || last.data["status"] != "done" {
		t.Errorf("terminal record = %+v", last)
	}
	names := make(map[string]bool)
	for _, r := range recs[:len(recs)-1] {
		name, _ := r.data["event"].(string)
		names[name] = true
	}
	for _, want := range []string{"srv.admit", "srv.queue.begin", "srv.queue.end", "srv.job.begin", "srv.job.end"} {
		if !names[want] {
			t.Errorf("stream missing %q; got %v", want, names)
		}
	}

	// A subscriber attaching after completion replays the retained tail
	// and terminates immediately.
	late, err := http.Get(ts.URL + acc.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	lateRecs := readSSE(t, late.Body)
	if len(lateRecs) == 0 || lateRecs[len(lateRecs)-1].event != "done" {
		t.Errorf("late subscriber records = %+v", lateRecs)
	}
}

// TestSlowSSEClientNeverBlocksJob is the backpressure contract: a
// subscriber that stops reading must not delay job completion, and a
// ring overwritten by a chatty job reports an explicit gap rather than
// unbounded growth.
func TestSlowSSEClientNeverBlocksJob(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	blocker, _, err := s.submit(work{
		kind: "tdv", key: "blocker",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			<-release
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A chatty job: emits far more events than the ring holds.
	chatty, _, err := s.submit(work{
		kind: "tdv", key: "chatty",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			for i := 0; i < 2*eventBuffer; i++ {
				col.Emit("chatty.tick", obs.F("i", i))
			}
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe but never read: the server-side handler may block on the
	// connection buffer, but the job and its worker must not.
	stream, err := http.Get(ts.URL + "/v1/jobs/" + chatty.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-blocker.done

	select {
	case <-chatty.done:
	case <-time.After(10 * time.Second):
		t.Fatal("job blocked behind an unread SSE subscriber")
	}
	stream.Body.Close() // disconnect the stalled subscriber

	// Completion closes chatty.done before the ring closes; wait for the
	// ring. It kept only the newest events and reports the overwrite.
	waitRingClosed(t, chatty)
	batch, first, _, dropped, _, _ := chatty.events.since(0)
	if len(batch) != eventBuffer {
		t.Errorf("ring retained %d events, want %d", len(batch), eventBuffer)
	}
	if dropped == 0 || first != dropped {
		t.Errorf("dropped = %d, first = %d; want an explicit gap", dropped, first)
	}

	// A fresh subscriber sees the gap record before the tail.
	late, err := http.Get(ts.URL + "/v1/jobs/" + chatty.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	recs := readSSE(t, late.Body)
	if len(recs) == 0 || recs[0].event != "gap" {
		t.Fatalf("late subscriber records = %+v, want leading gap", recs)
	}
	if d, _ := recs[0].data["dropped"].(float64); d == 0 {
		t.Errorf("gap record carries no dropped count: %+v", recs[0])
	}
}

// TestQueueWaitAndServiceHistograms checks queue wait and service time
// are recorded as first-class histograms, and that a cache-served rerun
// counts toward latency but not service time.
func TestQueueWaitAndServiceHistograms(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	if rec := post(t, h, "/v1/tdv", `{"builtin":"d695","async":false}`); rec.Code != http.StatusOK {
		t.Fatalf("tdv: %d %s", rec.Code, rec.Body)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["srv.queuewait.tdv"].Count; got != 1 {
		t.Errorf("queuewait count = %d, want 1", got)
	}
	if got := snap.Histograms["srv.service.tdv"].Count; got != 1 {
		t.Errorf("service count = %d, want 1", got)
	}

	// Force the dequeue-time cache path: an async nocache=false job whose
	// key is already warm still runs through the queue but is served from
	// the store — latency ticks, service must not.
	rec := post(t, h, "/v1/tdv", `{"builtin":"d695","async":true,"priority":1}`)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("rerun: %d %s", rec.Code, rec.Body)
	}
	if rec.Code == http.StatusAccepted {
		var acc struct {
			Job string `json:"job"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err == nil && acc.Job != "" {
			<-s.lookup(acc.Job).done
		}
	}
	snap = reg.Snapshot()
	if got := snap.Histograms["srv.service.tdv"].Count; got != 1 {
		t.Errorf("cached rerun inflated service count to %d", got)
	}
}

// TestHealthzReportsBuildAndCapacity checks the extended health payload.
func TestHealthzReportsBuildAndCapacity(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 3, Version: "v1.2.3-test"})
	h := s.Handler()
	rec := get(t, h, "/healthz")
	var hz struct {
		OK      bool   `json:"ok"`
		Workers int    `json:"workers"`
		Busy    int    `json:"busy"`
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.Workers != 3 || hz.Version != "v1.2.3-test" || !strings.HasPrefix(hz.Go, "go") {
		t.Errorf("healthz = %+v", hz)
	}
	if hz.Busy != 0 {
		t.Errorf("idle server busy = %d", hz.Busy)
	}
}

// TestMetricszPrometheusFormat checks the scrape-format negotiation on
// /metricsz: explicit ?format=prometheus and an Accept: text/plain
// header both switch from JSON to the text exposition.
func TestMetricszPrometheusFormat(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	if rec := post(t, h, "/v1/tdv", `{"builtin":"d695"}`); rec.Code != http.StatusOK {
		t.Fatalf("tdv: %d %s", rec.Code, rec.Body)
	}

	rec := get(t, h, "/metricsz?format=prometheus")
	if rec.Code != http.StatusOK {
		t.Fatalf("metricsz prometheus: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE repro_srv_jobs_executed_total counter",
		"repro_srv_jobs_executed_total 1",
		"# TYPE repro_srv_queuewait_tdv histogram",
		`repro_srv_queuewait_tdv_bucket{le="+Inf"} 1`,
		"# TYPE repro_srv_service_tdv histogram",
		"# TYPE repro_srv_workers gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	neg := httptest.NewRecorder()
	h.ServeHTTP(neg, req)
	if !strings.Contains(neg.Body.String(), "repro_srv_jobs_executed_total") {
		t.Error("Accept: text/plain did not negotiate the prometheus format")
	}

	// The default stays JSON.
	if rec := get(t, h, "/metricsz"); !strings.HasPrefix(strings.TrimSpace(rec.Body.String()), "{") {
		t.Error("default /metricsz no longer JSON")
	}
}
