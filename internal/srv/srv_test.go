package srv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// newTestServer builds a server over a temp-dir store and registers its
// drain as cleanup. The registry is returned for counter assertions.
func newTestServer(t testing.TB, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if cfg.Col == nil {
		cfg.Col = obs.New(reg, nil)
	}
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir(), 0, cfg.Col)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s := New(cfg)
	t.Cleanup(s.Drain)
	return s, reg
}

// post issues a synchronous JSON POST against the handler and returns the
// recorded response.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// tinyBench is a minimal inline netlist; small enough that its ATPG run
// is instant, so the expensive stand-in profiles stay out of unit tests.
const tinyBench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"

// TestWarmResponseIsByteIdenticalToCold is the tentpole cache contract at
// the HTTP layer: the second identical request is served from the store,
// byte-for-byte equal to the first, computed, response.
func TestWarmResponseIsByteIdenticalToCold(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	body, _ := json.Marshal(map[string]any{"bench": tinyBench})

	cold := post(t, h, "/v1/atpg", string(body))
	if cold.Code != http.StatusOK {
		t.Fatalf("cold request: %d %s", cold.Code, cold.Body)
	}
	if got := cold.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", got)
	}

	warm := post(t, h, "/v1/atpg", string(body))
	if warm.Code != http.StatusOK {
		t.Fatalf("warm request: %d %s", warm.Code, warm.Body)
	}
	if got := warm.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("warm body differs from cold:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	snap := reg.Snapshot()
	if snap.Counters["srv.jobs.executed"] != 1 {
		t.Errorf("executed = %d, want exactly 1 computation", snap.Counters["srv.jobs.executed"])
	}
	if snap.Counters["srv.cache.served"] != 1 {
		t.Errorf("cache.served = %d, want 1", snap.Counters["srv.cache.served"])
	}
	var sum struct {
		Circuit  string   `json:"circuit"`
		Coverage float64  `json:"coverage"`
		Patterns []string `json:"patterns"`
	}
	if err := json.Unmarshal(cold.Body.Bytes(), &sum); err != nil {
		t.Fatalf("response is not a result summary: %v", err)
	}
	if len(sum.Patterns) == 0 {
		t.Error("summary carries no patterns")
	}
}

// TestCoalescingOnePipelineRun is the satellite race test: N parallel
// identical requests perform exactly one underlying ATPG run. A blocker
// job pins the single worker so the N requests pile up behind it and must
// coalesce rather than racing each other to completion.
func TestCoalescingOnePipelineRun(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1, QueueSize: 16})
	h := s.Handler()

	release := make(chan struct{})
	blocker, cachedArtifact, err := s.submit(work{
		kind: "tdv", key: "",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			<-release
			return []byte("{}\n"), nil
		},
	})
	if err != nil || cachedArtifact != nil {
		t.Fatalf("blocker submit = %v, %v", cachedArtifact, err)
	}

	const n = 8
	body, _ := json.Marshal(map[string]any{"bench": tinyBench})
	responses := make([]*httptest.ResponseRecorder, n)
	var started, finished sync.WaitGroup
	started.Add(n)
	finished.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer finished.Done()
			started.Done()
			responses[i] = post(t, h, "/v1/atpg", string(body))
		}(i)
	}
	started.Wait()
	// Wait until every request has either enqueued the one shared job or
	// attached to it, then let the worker go.
	deadline := time.After(5 * time.Second)
	for {
		snap := reg.Snapshot()
		if snap.Counters["srv.jobs.coalesced"] == n-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("coalesced = %d, want %d", snap.Counters["srv.jobs.coalesced"], n-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	<-blocker.done
	finished.Wait()

	first := responses[0]
	if first.Code != http.StatusOK {
		t.Fatalf("request 0: %d %s", first.Code, first.Body)
	}
	for i, rec := range responses {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	snap := reg.Snapshot()
	// Exactly two computations ran: the blocker and ONE shared ATPG job.
	if got := snap.Counters["srv.jobs.executed"]; got != 2 {
		t.Errorf("executed = %d, want 2 (blocker + one coalesced ATPG)", got)
	}
	if got := snap.Counters["srv.jobs.coalesced"]; got != n-1 {
		t.Errorf("coalesced = %d, want %d", got, n-1)
	}
}

// TestTDVEndpoint checks the built-in SOC path end to end, including the
// tmono override folding into the content address.
func TestTDVEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	h := s.Handler()

	rec := post(t, h, "/v1/tdv", `{"builtin":"d695"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("tdv d695: %d %s", rec.Code, rec.Body)
	}
	var rep map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("tdv response not JSON: %v", err)
	}

	// A different tmono must be a different content address, not a stale
	// cache hit.
	over := post(t, h, "/v1/tdv", `{"builtin":"d695","tmono":99999}`)
	if over.Code != http.StatusOK {
		t.Fatalf("tdv override: %d %s", over.Code, over.Body)
	}
	if over.Header().Get("X-Cache") != "miss" {
		t.Error("tmono override hit the cache of the unmodified SOC")
	}
	if bytes.Equal(over.Body.Bytes(), rec.Body.Bytes()) {
		t.Error("tmono override produced the unmodified report")
	}
}

// TestLintEndpoint checks both lint modes and the diagnostics wire shape.
func TestLintEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()

	// A bench with an undriven output must produce at least one error.
	rec := post(t, h, "/v1/lint", `{"bench":"INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("lint bench: %d %s", rec.Code, rec.Body)
	}
	var art struct {
		Errors int `json:"errors"`
		Diags  []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
		} `json:"diags"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &art); err != nil {
		t.Fatal(err)
	}
	if art.Errors == 0 || len(art.Diags) == 0 {
		t.Errorf("broken bench produced no errors: %s", rec.Body)
	}

	// The overflow probe /v1/tdv refuses is a positioned SOC014 error,
	// with the refusal's text.
	rec = post(t, h, "/v1/lint", overflowSOC)
	want := `{"rule":"SOC014","severity":"error","file":"request.soc","line":3,"subject":"A","msg":"module A: Eq. 4 TDV_modular overflows int64"}`
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("lint overflow probe: %d %s, want %s", rec.Code, rec.Body, want)
	}
}

// invalidRequests are bodies every handler must refuse with a 400.
// FuzzDecode seeds its corpus with them.
var invalidRequests = []struct{ path, body string }{
	{"/v1/atpg", `{}`},
	{"/v1/atpg", `{"bench":"x","standin":"c17-like"}`},
	{"/v1/atpg", `{"standin":"no-such-circuit"}`},
	{"/v1/atpg", `not json`},
	{"/v1/tdv", `{}`},
	{"/v1/tdv", `{"soc":"x","builtin":"d695"}`},
	{"/v1/lint", `{}`},
	// Negative numeric fields are rejected, never replaced by a default.
	{"/v1/atpg", `{"standin":"s713","options":{"random":-1}}`},
	{"/v1/atpg", `{"standin":"s713","options":{"backtrack":-1}}`},
	{"/v1/atpg", `{"standin":"s713","options":{"passes":-1}}`},
	{"/v1/atpg", `{"standin":"s713","options":{"dynamic_targets":-1}}`},
	{"/v1/atpg", `{"standin":"s713","options":{"workers":-1}}`},
	{"/v1/atpg", `{"standin":"s713","timeout_ms":-1}`},
	// Counts that size an allocation are bounded.
	{"/v1/atpg", `{"standin":"s713","options":{"random":65537}}`},
	{"/v1/atpg", `{"standin":"s713","options":{"workers":65}}`},
	{"/v1/tdv", `{"builtin":"d695","tmono":-1}`},
	{"/v1/lint", `{"bench":"INPUT(a)\nOUTPUT(a)\n","timeout_ms":-5}`},
	{"/v1/schedule", `{"builtin":"d695","tam":32,"power_budget":-1}`},
	// An inline profile must name its SOC: without a 'soc <name>' line
	// the canonical text would not parse back.
	{"/v1/tdv", `{"soc":"module A t 1\ntop A"}`},
	{"/v1/schedule", `{"soc":"module A t 1\ntop A","tam":8}`},
	// A T_mono below the largest module pattern count violates Eq. 2,
	// from the request field or from the profile's own tmono line.
	{"/v1/tdv", `{"builtin":"d695","tmono":1}`},
	{"/v1/tdv", `{"soc":"soc x\ntmono 3\nmodule A t 50\ntop A"}`},
	// A profile whose TDV arithmetic leaves int64.
	{"/v1/tdv", overflowSOC},
	{"/v1/schedule", strings.TrimSuffix(overflowSOC, "}") + `,"tam":8}`},
	// A power budget below one core's own power: only the scheduler can
	// tell, so the request is queued and refused when it runs.
	{"/v1/schedule", `{"builtin":"d695","tam":1,"power_budget":1}`},
}

// TestValidationErrors checks malformed requests are 400s with a JSON
// error. Only the requests whose work unit builds, and which the
// scheduler then refuses, are queued.
func TestValidationErrors(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	var builds int64
	for _, tc := range invalidRequests {
		for _, k := range kinds {
			req := k.newReq()
			if "/v1/"+k.name == tc.path && json.Unmarshal([]byte(tc.body), req) == nil {
				if _, _, err := k.build(s, req); err == nil {
					builds++
				}
			}
		}
		rec := post(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s %q = %d, want 400", tc.path, tc.body, rec.Code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("POST %s %q: error body %q not JSON", tc.path, tc.body, rec.Body)
		}
	}
	if got := reg.Snapshot().Counters["srv.jobs.enqueued"]; got != builds {
		t.Errorf("validation failures enqueued %d jobs, want %d", got, builds)
	}
}

// TestEq2ViolationRefused checks a T_mono below T_max, given by the
// request or by an inline profile, is a 400 naming Eq. 2 and never
// reaches Benefit's panic.
func TestEq2ViolationRefused(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	for body, want := range map[string]string{
		`{"builtin":"d695","tmono":1}`:                   "T_mono=1 is below T_max=",
		`{"soc":"soc x\ntmono 3\nmodule A t 50\ntop A"}`: "T_mono=3 is below T_max=50, violating Eq. 2",
	} {
		rec := post(t, h, "/v1/tdv", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) ||
			!strings.Contains(rec.Body.String(), "violating Eq. 2") {
			t.Errorf("POST /v1/tdv %q = %d %s, want 400 with %q", body, rec.Code, rec.Body, want)
		}
	}
}

// overflowSOC is a /v1/tdv body whose one core, at S = 2·10⁹ and T = 3·10⁹,
// puts Eq. 4 past int64.
const overflowSOC = `{"soc":"soc big\nmodule Top t 1 children A\nmodule A s 2000000000 t 3000000000\ntop Top"}`

// TestOverflowRefused checks a profile whose TDV arithmetic leaves int64
// is a 400 naming the module and the equation, not a 200 carrying a
// wrapped, negative volume: on /v1/tdv, and on /v1/schedule, whose
// tdv_bits and abort-on-fail expectation would wrap too.
func TestOverflowRefused(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	for path, body := range map[string]string{
		"/v1/tdv":      overflowSOC,
		"/v1/schedule": strings.TrimSuffix(overflowSOC, "}") + `,"tam":8}`,
	} {
		rec := post(t, s.Handler(), path, body)
		if want := "module A: Eq. 4 TDV_modular overflows int64"; rec.Code != http.StatusBadRequest ||
			!strings.Contains(rec.Body.String(), want) {
			t.Errorf("POST %s %q = %d %s, want 400 with %q", path, body, rec.Code, rec.Body, want)
		}
	}
	if got := reg.Snapshot().Counters["srv.jobs.enqueued"]; got != 0 {
		t.Errorf("refused requests enqueued %d jobs", got)
	}
}

// TestAsyncJobLifecycle checks the 202 + poll flow and the /v1/jobs view.
func TestAsyncJobLifecycle(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()

	rec := post(t, h, "/v1/tdv", `{"builtin":"d695","async":true}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", rec.Code, rec.Body)
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || acc.Job == "" {
		t.Fatalf("async accept body %q", rec.Body)
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/jobs/"+acc.Job {
		t.Errorf("Location = %q", loc)
	}

	deadline := time.After(5 * time.Second)
	for {
		jrec := get(t, h, "/v1/jobs/"+acc.Job)
		if jrec.Code != http.StatusOK {
			t.Fatalf("job poll: %d %s", jrec.Code, jrec.Body)
		}
		var st struct {
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(jrec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" {
			if len(st.Result) == 0 {
				t.Error("done job carries no result")
			}
			break
		}
		if st.Status == "failed" {
			t.Fatalf("job failed: %s", jrec.Body)
		}
		select {
		case <-deadline:
			t.Fatalf("job stuck in %q", st.Status)
		case <-time.After(time.Millisecond):
		}
	}

	if rec := get(t, h, "/v1/jobs/j999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", rec.Code)
	}
}

// TestDrainRejectsNewWork checks the drain contract: accepted jobs finish,
// new submissions get 503, and Drain returns only when the backlog is
// empty.
func TestDrainRejectsNewWork(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()

	release := make(chan struct{})
	executed := false
	j, _, err := s.submit(work{
		kind: "tdv", key: "",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			<-release
			executed = true
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s.Drain()
	}()
	// Drain must not return while the in-flight job is blocked.
	for s.Queued() > 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a job still running")
	case <-time.After(10 * time.Millisecond):
	}

	rec := post(t, h, "/v1/tdv", `{"builtin":"d695"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", rec.Code)
	}
	hrec := get(t, h, "/healthz")
	var hz struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(hrec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.OK || !hz.Draining {
		t.Errorf("healthz while draining = %+v", hz)
	}

	close(release)
	<-drained
	<-j.done
	if !executed {
		t.Error("in-flight job was abandoned by drain")
	}
}

// TestQueueBackpressure checks a full queue rejects with 503 rather than
// queueing unboundedly.
func TestQueueBackpressure(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1, QueueSize: 2})
	h := s.Handler()

	release := make(chan struct{})
	defer close(release)
	claimed := make(chan struct{})
	blocker := work{
		kind: "tdv", key: "blocker",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			close(claimed)
			<-release
			return []byte("{}\n"), nil
		},
	}
	if _, _, err := s.submit(blocker); err != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	// Wait for the worker to claim the blocker so both fill slots are
	// genuinely queue capacity.
	select {
	case <-claimed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never claimed the blocker")
	}
	for i := 0; i < 2; i++ {
		_, _, err := s.submit(work{
			kind: "tdv", key: fmt.Sprintf("fill%d", i),
			run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
				<-release
				return []byte("{}\n"), nil
			},
		})
		if err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
	}
	rec := post(t, h, "/v1/tdv", `{"builtin":"d695"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("over-capacity submit = %d, want 503", rec.Code)
	}
	if got := reg.Snapshot().Counters["srv.queue.rejected"]; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestRejectedSubmitsLeaveNoTrace checks a submit the full queue refuses
// leaves nothing in the job map, the history ring or the coalescing map:
// more than jobHistory refusals must not push an accepted job out of
// /v1/jobs.
func TestRejectedSubmitsLeaveNoTrace(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	release := make(chan struct{})
	defer close(release)
	claimed := make(chan struct{})
	blocker, _, err := s.submit(work{
		kind: "tdv", key: "blocker",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			close(claimed)
			<-release
			return []byte("{}\n"), nil
		},
	})
	if err != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	select {
	case <-claimed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never claimed the blocker")
	}
	wait := func(ctx context.Context, col *obs.Collector) ([]byte, error) {
		<-release
		return []byte("{}\n"), nil
	}
	if _, _, err := s.submit(work{kind: "tdv", key: "fill", run: wait}); err != nil {
		t.Fatalf("fill submit: %v", err)
	}
	for i := 0; i < jobHistory+10; i++ {
		if _, _, err := s.submit(work{kind: "tdv", key: fmt.Sprintf("over%d", i), run: wait}); err == nil {
			t.Fatalf("submit %d to a full queue was accepted", i)
		}
	}
	s.mu.Lock()
	order, jobs, inflight := slices.Clone(s.jobOrder), len(s.jobs), len(s.inflight)
	s.mu.Unlock()
	if want := []string{blocker.id, "j2"}; !slices.Equal(order, want) || jobs != 2 || inflight != 2 {
		t.Errorf("history %v, %d jobs, %d in flight; want %v, 2, 2", order, jobs, inflight, want)
	}
	if rec := get(t, s.Handler(), "/v1/jobs/"+blocker.id); rec.Code != http.StatusOK {
		t.Errorf("GET /v1/jobs/%s = %d, want 200", blocker.id, rec.Code)
	}
}

// TestPriorityOrdersBacklog checks a high-priority job overtakes earlier
// normal-priority backlog.
func TestPriorityOrdersBacklog(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})

	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	mk := func(name string, prio int) work {
		return work{
			kind: "tdv", key: name, priority: prio,
			run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return []byte("{}\n"), nil
			},
		}
	}
	// Blocker pins the worker while the backlog accumulates.
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
	var jobs []*job
	for _, wk := range []work{mk("low-a", 0), mk("low-b", 0), mk("high", 5)} {
		j, _, err := s.submit(wk)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	<-blocker.done
	for _, j := range jobs {
		<-j.done
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "low-a", "low-b"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("execution order = %v, want %v", order, want)
	}
}

// TestNoCacheBypassesStoreAndCoalescing checks nocache requests always
// recompute and never populate the store.
func TestNoCacheBypassesStoreAndCoalescing(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	body, _ := json.Marshal(map[string]any{"bench": tinyBench, "nocache": true})
	for i := 0; i < 2; i++ {
		rec := post(t, h, "/v1/atpg", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("nocache request %d: %d %s", i, rec.Code, rec.Body)
		}
		if rec.Header().Get("X-Cache") != "miss" {
			t.Errorf("nocache request %d served from cache", i)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["srv.jobs.executed"]; got != 2 {
		t.Errorf("executed = %d, want 2 independent computations", got)
	}
	if got := snap.Counters["store.puts"]; got != 0 {
		t.Errorf("nocache results were persisted (%d puts)", got)
	}
}

// TestJobPanicFailsOnlyThatJob checks a panicking job yields a 500 with
// the typed panic error while the worker survives for the next job.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})

	j, _, err := s.submit(work{
		kind: "tdv", key: "boom",
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			panic("kaboom")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if _, _, jerr, _, _ := j.snapshot(); jerr == nil || !strings.Contains(jerr.Error(), "kaboom") {
		t.Errorf("panic job error = %v", jerr)
	}
	// The worker must still be alive to serve this.
	h := s.Handler()
	rec := post(t, h, "/v1/tdv", `{"builtin":"d695"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic request: %d %s", rec.Code, rec.Body)
	}
	if got := reg.Snapshot().Counters["srv.jobs.failed"]; got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

// TestMetricszExposesQuantiles checks /metricsz renders the latency
// histograms with their p50/p95/p99 fields.
func TestMetricszExposesQuantiles(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	if rec := post(t, h, "/v1/tdv", `{"builtin":"d695"}`); rec.Code != http.StatusOK {
		t.Fatalf("tdv: %d %s", rec.Code, rec.Body)
	}
	rec := get(t, h, "/metricsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("metricsz: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"srv.latency.tdv", `"p50"`, `"p95"`, `"p99"`, "srv.jobs.executed"} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}

// TestJobHistoryBounded checks /v1/jobs forgets the oldest jobs past the
// history cap.
func TestJobHistoryBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	var jobs []*job
	for i := 0; i < jobHistory+1; i++ {
		j, _, err := s.submit(work{
			kind: "tdv", key: fmt.Sprintf("k%d", i),
			run: func(ctx context.Context, col *obs.Collector) ([]byte, error) { return []byte("{}\n"), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		<-j.done
	}
	if s.lookup(jobs[0].id) != nil {
		t.Error("oldest job survived the history cap")
	}
	if s.lookup(jobs[1].id) == nil || s.lookup(jobs[jobHistory].id) == nil {
		t.Error("a job within the history cap was forgotten")
	}
}
