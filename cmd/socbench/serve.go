package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/srv"
	"repro/internal/store"
)

// call is one catalog entry: a request the load mix draws from.
type call struct {
	name, path, body string
}

// tinyAnd and tinyMux are small inline netlists whose ATPG runs take
// milliseconds; the s713 stand-in is the heavy tail.
const (
	tinyAnd = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	tinyMux = "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nns = NOT(s)\nta = AND(a, ns)\ntb = AND(b, s)\ny = OR(ta, tb)\n"
)

// catalog is cmd/socload's request mix, hot-first: the Zipf draw makes
// entry 0 the most frequent and the s713 ATPG run the rare tail.
var catalog = []call{
	{"tdv/d695", "/v1/tdv", `{"builtin":"d695"}`},
	{"lint/bench", "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyAnd)},
	{"tdv/g1023", "/v1/tdv", `{"builtin":"g1023"}`},
	{"atpg/tiny-and", "/v1/atpg", fmt.Sprintf(`{"bench":%q}`, tinyAnd)},
	{"tdv/p22810", "/v1/tdv", `{"builtin":"p22810"}`},
	{"atpg/tiny-mux", "/v1/atpg", fmt.Sprintf(`{"bench":%q}`, tinyMux)},
	{"schedule/d695", "/v1/schedule", `{"builtin":"d695","tam":32}`},
	{"tdv/p93791", "/v1/tdv", `{"builtin":"p93791"}`},
	{"schedule/g1023", "/v1/schedule", `{"builtin":"g1023","tam":24}`},
	{"atpg/s713", "/v1/atpg", `{"standin":"s713"}`},
}

const (
	zipfS        = 1.3 // socload's default skew
	nocacheOneIn = 8   // serve_warm: one request in eight bypasses the store
	freshOneIn   = 16  // serve_churn: one request in sixteen is a fresh key
	maxConns     = 2   // HTTP connections the load generator may hold
	// freshBase offsets the ATPG seeds of fresh keys (freshBase+n) and of
	// the store fill (2·freshBase+n): far above any seed in use, so each is
	// a new key, and the two ranges never meet.
	freshBase = 1_000_000
)

// serveConfig is one serving workload.
type serveConfig struct {
	storeBytes int64
	// setups is how many servers a run starts and verifies, one after
	// another; setup_s is the median of their start-up times.
	setups int
	// ladder holds the open-loop rates in req/s, ascending. The first is
	// the reporting rate, where op_p50_ms is measured.
	ladder []float64
	// limit is the p99 latency a step must meet, and the generator
	// lateness at the end of the step it must stay under, to pass.
	limit time.Duration
	// fresh fills the store before timing and makes one request in
	// freshOneIn an s713 ATPG run under a seed never used before. Each goes
	// miss, queue, ~25 ms of compute, fsync'd Put and evictions, next to
	// the store reads of the others. Their median latency is the per-layer
	// serve.fresh_p50_ms and not op_p50_ms: it hangs on how the s713 jobs
	// overlap on two CPUs and two connections, and spread 0.16-0.30 of its
	// median over ten seeds, more than any bound may be. Cheap fresh keys,
	// such as tdv reports under a new T_mono, spend most of their ~1 ms in
	// fsync and spread 0.25.
	fresh bool
}

// The ladders stop below the rates where, on two CPUs, a step passes in
// some runs and fails in others (about 4000 req/s warm, 400-1600 req/s
// churn): a passing step keeps its p99 under half the limit. So max_rate
// reads the top passing step on every healthy run, and falls a step when
// capacity drops by more than the gap to the next (warm's 16000 step
// always fails; the gap to the flip zone is ~2× on warm, ~1.5× on churn).
var (
	serveWarm  = serveConfig{storeBytes: 64 << 20, setups: 9, ladder: []float64{250, 2000, 16000}, limit: 250 * time.Millisecond}
	serveChurn = serveConfig{storeBytes: 32 << 10, setups: 5, ladder: []float64{200, 300}, limit: 250 * time.Millisecond, fresh: true}
)

// request is one scheduled request of a ladder step.
type request struct {
	due  time.Duration // send time from the start of the step
	idx  int           // catalog entry; -1 for a fresh key
	path string
	body string
}

// serve drives an in-process srv over loopback HTTP with an open-loop
// schedule: seeded exponential inter-arrivals, Zipf draws over the
// catalog, and on serve_churn fresh keys. Three quarters of the timed
// phase run at the reporting rate, whose latency moves with the host's
// load from second to second; the last quarter climbs the rest of the
// ladder until a step misses the latency limit or falls behind. maxRate is
// the rate the last passing step sustained, as measured.
func serve(e *env, cfg serveConfig) (*outcome, error) {
	o := &outcome{serving: true}
	var sv *server
	defer func() {
		if sv != nil {
			sv.close()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if sv != nil {
			sv.close() // between set-ups, so tearing down is not timed
			sv = nil
		}
		err := setUp(e, o, 1, func(sp *tspan, _ func(string, time.Duration)) error {
			var err error
			sv, err = startServer(e, cfg, sp)
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	r := rand.New(rand.NewSource(e.seed))
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(catalog)-1))
	fresh := 0
	steps := make([][]request, len(cfg.ladder))
	for i, rate := range cfg.ladder {
		d := e.seconds * 3 / 4
		if i > 0 {
			d = e.seconds / 4 / time.Duration(len(cfg.ladder)-1)
		}
		steps[i] = schedule(r, zipf, cfg, rate, max(d, 100*time.Millisecond), &fresh)
	}

	before := sv.reg.Snapshot()
	for i, rate := range cfg.ladder {
		sp := e.tr.start("serve.step", nil)
		st := sv.runStep(e, steps[i], cfg.limit, sp)
		elapsed := sp.end()
		o.attempted += len(st.lat)
		o.failed += st.failed
		if st.err != nil {
			return nil, st.err
		}
		p99 := quantile(st.lat, 0.99)
		n := min(max(len(st.late)/10, 1), len(st.late))
		endLate := median(st.late[len(st.late)-n:])
		fmt.Fprintf(os.Stderr, "%s: %.0f req/s: %d of %d requests sent, p50 %.3f ms, p99 %.3f ms, end lateness %.3f ms\n",
			prog, rate, len(st.lat), len(steps[i]), ms(median(st.lat)), ms(p99), ms(endLate))
		if i == 0 {
			o.ops = st.lat
			var missLat []time.Duration
			for j, d := range st.lat {
				if steps[i][j].idx < 0 {
					missLat = append(missLat, d)
				}
			}
			o.layerAdd("serve.fresh_p50_ms", ms(median(missLat)))
			o.layerAdd("serve.p99_ms", ms(p99))
			o.layerAdd("gen.late_p99_ms", ms(quantile(st.late, 0.99)))
		}
		if len(st.lat) < len(steps[i]) || p99 > cfg.limit || endLate > cfg.limit {
			break
		}
		o.maxRate = float64(len(st.lat)) / elapsed.Seconds()
	}
	o.snap = diffSnapshot(sv.reg.Snapshot(), before)
	return o, nil
}

// schedule draws one ladder step's requests at the given rate.
func schedule(r *rand.Rand, zipf *rand.Zipf, cfg serveConfig, rate float64, d time.Duration, fresh *int) []request {
	var out []request
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		q := request{due: time.Duration(t * float64(time.Second)), idx: int(zipf.Uint64())}
		switch {
		case cfg.fresh && r.Intn(freshOneIn) == 0:
			*fresh++
			q.idx, q.path, q.body = -1, "/v1/atpg", freshATPG(freshBase+*fresh)
		case !cfg.fresh && r.Intn(nocacheOneIn) == 0:
			c := catalog[q.idx]
			q.path, q.body = c.path, withField(c.body, `"nocache":true`)
		default:
			c := catalog[q.idx]
			q.path, q.body = c.path, c.body
		}
		out = append(out, q)
	}
}

// withField adds one JSON member to a request body object.
func withField(body, member string) string {
	return strings.TrimSuffix(body, "}") + "," + member + "}"
}

// server is an in-process srv behind a loopback listener, its store, and
// the load generator's HTTP client.
type server struct {
	dir    string
	reg    *obs.Registry
	srv    *srv.Server
	ts     *httptest.Server
	client *http.Client
	base   [][]byte // each catalog entry's verified response
}

// startServer opens a fresh store, starts the server, and verifies the
// catalog: each entry's cold (miss) and warm (hit) responses must be
// byte-identical and match the golden digests.
func startServer(e *env, cfg serveConfig, parent *tspan) (*server, error) {
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	col := obs.New(reg, nil)
	sp := e.tr.start("store.open", parent)
	st, err := store.Open(dir, cfg.storeBytes, col)
	sp.end()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sp = e.tr.start("srv.start", parent)
	s := srv.New(srv.Config{Workers: e.workers, Store: st, Col: col})
	sv := &server{
		dir: dir, reg: reg, srv: s,
		ts:     httptest.NewServer(s.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}, Timeout: time.Minute},
	}
	sp.end()

	sp = e.tr.start("catalog.verify", parent)
	err = sv.verifyCatalog(e)
	sp.end()
	if err == nil && cfg.fresh {
		sp = e.tr.start("store.fill", parent)
		err = sv.fill()
		sp.end()
	}
	if err != nil {
		sv.close()
		return nil, err
	}
	return sv, nil
}

// fill stores s713 ATPG results under seeds the timed phase never uses
// until the store starts evicting, so a churn run measures the steady
// state of a full store rather than its first minutes of filling.
func (s *server) fill() error {
	evictions := s.reg.Counter("store.evictions")
	for k := 1; evictions.Value() == 0; k++ {
		q := request{idx: -1, path: "/v1/atpg", body: freshATPG(2*freshBase + k)}
		status, _, body, err := s.post(q.path, q.body)
		if err != nil {
			return fmt.Errorf("store fill: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("store fill: status %d: %s", status, bytes.TrimSpace(body))
		}
		if err := s.check(q, body); err != nil {
			return fmt.Errorf("store fill: %w", err)
		}
	}
	return nil
}

// freshATPG is the body of an s713 ATPG request under the given seed; the
// s713 run is the catalog's last entry.
func freshATPG(seed int) string {
	return withField(catalog[len(catalog)-1].body, fmt.Sprintf(`"options":{"seed":%d}`, seed))
}

// catalogDigest is one entry of the golden catalog digests.
type catalogDigest struct {
	Name   string
	SHA256 string
}

func (s *server) verifyCatalog(e *env) error {
	var digests []catalogDigest
	for _, c := range catalog {
		var bodies [2][]byte
		for i, wantHit := range []bool{false, true} {
			status, hit, body, err := s.post(c.path, c.body)
			if err != nil {
				return fmt.Errorf("catalog %s: %w", c.name, err)
			}
			if status != http.StatusOK || hit != wantHit {
				return fmt.Errorf("catalog %s: status %d, store hit %v (want 200, %v): %s", c.name, status, hit, wantHit, bytes.TrimSpace(body))
			}
			bodies[i] = body
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			return fmt.Errorf("catalog %s: warm response differs from cold", c.name)
		}
		s.base = append(s.base, bodies[0])
		sum := sha256.Sum256(bodies[0])
		digests = append(digests, catalogDigest{c.name, hex.EncodeToString(sum[:])})
	}
	return checkGolden(e, "serve_catalog.json", goldenJSON(digests))
}

// post sends one request and returns its status, whether the store
// served it, and the body.
func (s *server) post(path, body string) (status int, hit bool, data []byte, err error) {
	resp, err := s.client.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, false, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache") == "hit", data, err
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Drain()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// failedLatency stands for the latency of a failed request: longer than
// any limit, so a failure misses it.
const failedLatency = time.Hour

// stepResult is one ladder step, indexed like its schedule.
type stepResult struct {
	lat, late []time.Duration
	failed    int
	err       error // the first response that failed its check
}

// runStep sends the step's requests on schedule from up to maxConns
// client goroutines. A request's latency runs from its due time, so a
// stall also delays the requests queued behind it; only the generator's
// own timer overshoot after sleeping is left out. late is how far behind
// schedule each request was sent. Once the generator runs four limits
// behind, the backlog is growing and the step stops sending.
func (s *server) runStep(e *env, reqs []request, limit time.Duration, parent *tspan) stepResult {
	lat, late := make([]time.Duration, len(reqs)), make([]time.Duration, len(reqs))
	clients := min(e.workers, maxConns)
	failed := make([]int, clients)
	errs := make([]error, clients)
	var next, sent atomic.Int64
	var stop atomic.Bool
	t0 := e.tr.now()
	pool := par.StartPool(clients, func(id int) {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(reqs) {
				return
			}
			q := reqs[i]
			from, at := q.due, e.tr.now()-t0
			if wait := q.due - at; wait > 0 {
				time.Sleep(wait)
				at = e.tr.now() - t0
				from = at // the sleep's overshoot is the generator's, not the server's
			}
			late[i] = at - q.due
			if late[i] > 4*limit {
				stop.Store(true)
			}
			sp := e.tr.start("serve.request", parent)
			status, _, body, err := s.post(q.path, q.body)
			sp.end()
			sent.Add(1)
			lat[i] = e.tr.now() - t0 - from
			if err != nil || status != http.StatusOK {
				failed[id]++
				lat[i] = failedLatency
				continue
			}
			if cerr := s.check(q, body); cerr != nil && errs[id] == nil {
				errs[id] = cerr
			}
		}
	})
	pool.Wait()
	// Requests are taken in index order, so the ones sent form a prefix.
	n := int(sent.Load())
	res := stepResult{lat: lat[:n], late: late[:n]}
	for id := range failed {
		res.failed += failed[id]
		if res.err == nil {
			res.err = errs[id]
		}
	}
	return res
}

// check verifies one response: a catalog key must return its baseline
// bytes; a fresh key, an s713 ATPG run under a new seed, must grade the
// baseline run's fault list with exact accounting and a pattern set.
func (s *server) check(q request, body []byte) error {
	if q.idx >= 0 {
		if !bytes.Equal(body, s.base[q.idx]) {
			return fmt.Errorf("%s: response differs from its verified baseline", catalog[q.idx].name)
		}
		return nil
	}
	var got, base atpg.ResultSummary
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("fresh %s: %w", q.body, err)
	}
	if err := json.Unmarshal(s.base[len(catalog)-1], &base); err != nil {
		return fmt.Errorf("s713 baseline: %w", err)
	}
	if got.Circuit != base.Circuit || got.Faults != base.Faults || got.Incomplete ||
		got.Detected+got.Redundant+got.ProvedRedundant+got.Aborted != got.Faults ||
		got.PatternCount < 1 || got.PatternCount != len(got.Patterns) {
		return fmt.Errorf("fresh %s: malformed ATPG result: %s", q.body, bytes.TrimSpace(body))
	}
	return nil
}
