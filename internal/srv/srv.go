// Package srv is the serving subsystem of the reproduction: an HTTP JSON
// API that turns the one-shot analysis pipeline (ATPG, TDV, lint) into a
// long-running analysis-as-a-service layer, the kind of system the
// ROADMAP's north star asks for.
//
// Architecture:
//
//   - Requests are parsed and canonicalized by the handlers, which derive
//     a content address (internal/store.Key) from the canonical input and
//     the options fingerprint. A warm key is answered straight from the
//     store — bit-identical to the cold response, because the stored
//     artifact IS the cold response body.
//   - Cold keys become jobs on a bounded priority queue (higher priority
//     first, FIFO within), executed by a fixed worker pool built on
//     internal/par's Pool, each under its own deadline.
//   - Identical in-flight keys coalesce: the second request for a key
//     whose job is queued or running attaches to that job instead of
//     enqueueing a duplicate, so a thundering herd performs exactly one
//     computation.
//   - Drain (wired to SIGINT/SIGTERM by cmd/socd via internal/runctl)
//     stops admission, lets the workers finish every accepted job, and
//     returns — in-flight work completes and lands in the store before
//     the process exits.
//
// Crash safety: with a JournalPath configured, every admission is
// fsync'd to an append-only JSONL journal before the client sees its job
// id, and every completion appends a matching done record. A daemon
// killed mid-flight replays the journal on the next start: admitted-but-
// unfinished jobs are rebuilt from their recorded request JSON (the same
// builders the HTTP handlers use — see work.go and journal.go), re-
// enqueued under their original ids, and — for ATPG — resumed from the
// per-job checkpoint where one landed. A live submit and a replay admit
// through the same two steps, newJobLocked (build, trace, register) and
// enqueue (admission event, queue span, push), so a replayed job keeps
// its first life's id, seq and trace. Dequeue is fair across clients
// (see queue.go), and admission rejections carry a Retry-After derived
// from the live queue-wait distribution.
//
// Everything is instrumented through internal/obs: queue-depth gauge,
// per-kind latency histograms (whose p50/p95/p99 surface on /metricsz),
// executed/coalesced/failed counters, and the store's hit/miss/eviction
// counters.
package srv

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/runctl"
	"repro/internal/store"
)

// Failpoint names the serving layer hits; the chaos harness and tests arm
// them via runctl (or the /debug/failpoints endpoint when Config.Debug).
const (
	// FPAdmit fires at the top of submit: an armed error surfaces as a
	// 503 with Retry-After, exactly like a full queue.
	FPAdmit = "srv.admit"
	// FPWorker fires in the worker just before the computation runs;
	// armed as a panic it exercises the per-job panic recovery.
	FPWorker = "srv.worker"
)

// Config assembles a Server. It holds only what cmd/socd sets from its
// flags; the limits no caller tunes are the constants below.
type Config struct {
	// Workers is the size of the job worker pool (0 = NumCPU).
	Workers int
	// QueueSize bounds the job backlog; submissions beyond it are
	// rejected with 503. 0 means the default of 64.
	QueueSize int
	// Store is the content-addressed result cache; nil disables caching
	// (every request computes).
	Store *store.Store
	// Col receives instrumentation; nil disables it.
	Col *obs.Collector
	// JobTimeout is the default per-job deadline; a request may set its
	// own (timeout_ms), which takes precedence. 0 means no deadline.
	JobTimeout time.Duration
	// Version is the build identifier /healthz reports ("" = "dev").
	Version string
	// JournalPath enables the durable job journal: admissions and
	// completions are fsync'd there, and startup replays unfinished jobs.
	// ATPG jobs additionally checkpoint under JournalPath+".ckpt" so a
	// replayed job resumes instead of restarting. "" disables both.
	JournalPath string
	// Debug exposes POST /debug/failpoints (the chaos harness's arming
	// endpoint). Off by default; never enable on an untrusted network.
	Debug bool
}

const (
	// jobHistory is how many jobs stay queryable via /v1/jobs/{id}.
	jobHistory = 512
	// eventBuffer caps each job's trace event ring behind the SSE stream
	// (GET /v1/jobs/{id}/events).
	eventBuffer = 256
	// sseKeepAlive is the comment interval keeping idle SSE streams alive
	// through proxies.
	sseKeepAlive = 15 * time.Second
)

// jobState is the lifecycle of a job as /v1/jobs reports it.
type jobState int32

const (
	stateQueued jobState = iota
	stateRunning
	stateDone
	stateFailed
)

func (s jobState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	}
	return "unknown"
}

// job is one admitted unit of work: the work it runs, plus the
// bookkeeping the queue, the coalescing map and /v1/jobs need. Its key is
// "" for a nocache run, which is never stored or coalesced.
type job struct {
	work
	id  string
	seq int64

	// Request-scoped tracing: tc is the job's root trace identity
	// (deterministic in (kind, key, admission seq) — see obs.NewTrace),
	// sink fans every span event into the SSE ring and, when the daemon
	// has a -trace file, the process-wide sink too. queueSpan opens at
	// admission and closes at dequeue, making queue-wait a first-class
	// measurement distinct from service time.
	tc        obs.TraceContext
	events    *eventBuf
	sink      obs.Sink
	queueSpan *obs.Span

	done chan struct{} // closed exactly once, after the fields below are final

	mu        sync.Mutex
	state     jobState
	result    []byte
	err       error
	cached    bool  // result came from the store, not a computation
	coalesced int64 // requests that attached to this job beyond the first
}

func (j *job) setState(s jobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// snapshot returns the fields /v1/jobs renders, consistently.
func (j *job) snapshot() (state jobState, result []byte, err error, cached bool, coalesced int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err, j.cached, j.coalesced
}

// complete finalizes the job and releases every waiter.
func (j *job) complete(result []byte, err error, cached bool) {
	j.mu.Lock()
	j.result, j.err, j.cached = result, err, cached
	if err != nil {
		j.state = stateFailed
	} else {
		j.state = stateDone
	}
	j.mu.Unlock()
	close(j.done)
}

// Server is the serving subsystem. Construct with New, expose with
// Handler, shut down with Drain.
type Server struct {
	cfg   Config
	col   *obs.Collector
	store *store.Store
	queue *jobQueue
	pool  *par.Pool

	mu       sync.Mutex
	draining bool
	seq      int64
	jobs     map[string]*job // by id, bounded by jobHistory
	jobOrder []string        // retained ids in admission order
	inflight map[string]*job // by key: queued or running, coalescing target

	busy atomic.Int64 // workers currently executing a job

	journal *runctl.AppendFile // nil when Config.JournalPath is ""
	ckptDir string             // per-job ATPG checkpoints; "" when journaling is off

	cEnqueued  *obs.Counter
	cExecuted  *obs.Counter
	cCoalesced *obs.Counter
	cFailed    *obs.Counter
	cCacheHits *obs.Counter // served from the store without queueing
	cRejected  *obs.Counter
	gBusy      *obs.Gauge
	qwaitAll   *obs.Histogram // queue wait across kinds; feeds Retry-After

	// Journal health: append failures are counted, never fatal — losing
	// journal durability degrades replay, not serving.
	cJournalErrs      *obs.Counter // srv.journal.errors
	cJournalMalformed *obs.Counter // srv.journal.malformed (torn/garbled lines)
	cJournalSkipped   *obs.Counter // srv.journal.skipped_version
	cJournalDropped   *obs.Counter // srv.journal.unsupported (kind we can't rebuild)
	cJournalReplayed  *obs.Counter // srv.journal.replayed
}

// New builds the server and starts its worker pool. Call Drain to stop.
func New(cfg Config) *Server {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	s := &Server{
		cfg:        cfg,
		col:        cfg.Col,
		store:      cfg.Store,
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		cEnqueued:  cfg.Col.Counter("srv.jobs.enqueued"),
		cExecuted:  cfg.Col.Counter("srv.jobs.executed"),
		cCoalesced: cfg.Col.Counter("srv.jobs.coalesced"),
		cFailed:    cfg.Col.Counter("srv.jobs.failed"),
		cCacheHits: cfg.Col.Counter("srv.cache.served"),
		cRejected:  cfg.Col.Counter("srv.queue.rejected"),
		gBusy:      cfg.Col.Gauge("srv.workers.busy"),
	}
	s.qwaitAll = cfg.Col.Histogram("srv.queuewait.all", latencyBounds...)
	// The schedule kind's histograms are first-class: pre-registered so
	// /metricsz exposes them from the first scrape, not only after the
	// first schedule job (runJob would lazily create them otherwise).
	cfg.Col.Histogram("srv.queuewait.schedule", latencyBounds...)
	cfg.Col.Histogram("srv.service.schedule", latencyBounds...)
	s.cJournalErrs = cfg.Col.Counter("srv.journal.errors")
	s.cJournalMalformed = cfg.Col.Counter("srv.journal.malformed")
	s.cJournalSkipped = cfg.Col.Counter("srv.journal.skipped_version")
	s.cJournalDropped = cfg.Col.Counter("srv.journal.unsupported")
	s.cJournalReplayed = cfg.Col.Counter("srv.journal.replayed")
	s.queue = newJobQueue(cfg.QueueSize, cfg.Col.Gauge("srv.queue.depth"))
	s.col.Gauge("srv.workers").Set(int64(par.Workers(cfg.Workers)))
	if cfg.JournalPath != "" {
		// Replay-and-compact happens before the workers start: every
		// unfinished job is back on the queue (under its original id and
		// trace identity) before any new work can race it.
		s.ckptDir = cfg.JournalPath + ".ckpt"
		if err := os.MkdirAll(s.ckptDir, 0o777); err != nil {
			s.ckptDir = "" // journal still works; resume degrades to recompute
		}
		s.replayJournal(cfg.JournalPath)
		if jf, err := runctl.OpenAppend(cfg.JournalPath); err != nil {
			s.cJournalErrs.Inc()
		} else {
			s.journal = jf
		}
	}
	s.pool = par.StartPool(cfg.Workers, s.work)
	return s
}

// Drain stops admission (new submissions get 503), waits for the workers
// to finish every accepted job, and returns. It is idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	s.pool.Wait()
	s.mu.Lock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.mu.Unlock()
}

// submit routes work through the cache, the coalescing map and the queue.
// It returns the job to wait on, the cached artifact when the store
// already held it (job == nil then), or an admission error.
func (s *Server) submit(wk work) (j *job, cachedArtifact []byte, err error) {
	if ferr := runctl.Hit(FPAdmit); ferr != nil {
		s.cRejected.Inc()
		return nil, nil, ferr
	}
	if wk.key != "" && !wk.nocache && s.store != nil {
		if data, ok := s.store.Get(wk.key); ok {
			s.cCacheHits.Inc()
			return nil, data, nil
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.cRejected.Inc()
		return nil, nil, ErrDraining
	}
	if wk.key != "" && !wk.nocache {
		if exist := s.inflight[wk.key]; exist != nil {
			exist.mu.Lock()
			exist.coalesced++
			exist.mu.Unlock()
			s.mu.Unlock()
			s.cCoalesced.Inc()
			return exist, nil, nil
		}
	}
	s.seq++
	j = s.newJobLocked(wk, fmt.Sprintf("j%d", s.seq), s.seq)
	s.mu.Unlock()

	if err := s.enqueue(j, false); err != nil {
		s.cRejected.Inc()
		return nil, nil, err
	}
	// The admission record is fsync'd after the push succeeds: a rejected
	// submission never reaches the journal, and a crash between push and
	// append can lose only a job whose admission the client never saw
	// acknowledged. Every acknowledged job is on disk before the HTTP
	// response carrying its id is written.
	s.appendJournal(journalRecord{
		V: journalVersion, Op: opAdmit, Job: j.id, Seq: j.seq,
		Kind: j.kind, Key: j.key, Client: j.client, Req: j.reqJSON,
	})
	return j, nil, nil
}

// newJobLocked builds the job that runs wk under id and seq, and registers
// it in the job map and, when cacheable, the coalescing map; enqueue adds
// it to the history ring once the queue takes it. A live submit and a
// journal replay both admit through it, so a replayed job carries exactly
// the identity of its first life. The caller holds s.mu.
func (s *Server) newJobLocked(wk work, id string, seq int64) *job {
	// The trace identity is a pure function of the content address and the
	// admission sequence number: two daemons fed the same request sequence
	// mint identical trace/span IDs (no wall clock, no randomness). A
	// nocache run traces under its content address too, taken before its
	// key is cleared.
	traceKey := wk.key
	if traceKey == "" {
		traceKey = id
	}
	if wk.nocache {
		wk.key = "" // never store or coalesce an explicitly uncached run
	}
	j := &job{
		work: wk, id: id, seq: seq,
		tc:     obs.NewTrace(wk.kind+"\x00"+traceKey, seq),
		events: newEventBuf(eventBuffer),
		done:   make(chan struct{}),
	}
	j.sink = obs.Sink(j.events)
	if base := s.col.Sink(); base != nil {
		j.sink = obs.MultiSink{j.events, base}
	}
	s.jobs[id] = j
	if j.key != "" {
		s.inflight[j.key] = j
	}
	return j
}

// enqueue emits the job's admission event on its root span, opens the
// queue span as a child (it closes at dequeue, so its duration IS the
// queue wait) and pushes the job. A replayed job was acknowledged in an
// earlier life, so it is pushed past the queue bound and its events say
// so. A pushed job joins the history ring; on a failed push the job is
// unregistered again and leaves no trace.
func (s *Server) enqueue(j *job, replayed bool) error {
	rootCol := obs.New(s.col.Metrics(), obs.AnnotateTrace(j.sink, j.tc))
	queueCol := obs.New(s.col.Metrics(), obs.AnnotateTrace(j.sink, j.tc.Child("queue")))
	var err error
	if replayed {
		rootCol.Emit("srv.replay",
			obs.F("job", j.id), obs.F("kind", j.kind), obs.F("circuit", j.circuit),
			obs.F("key", short(j.key)))
		j.queueSpan = queueCol.StartSpan("srv.queue", obs.F("job", j.id), obs.F("kind", j.kind), obs.F("replayed", true))
		err = s.queue.forcePush(j)
	} else {
		rootCol.Emit("srv.admit",
			obs.F("job", j.id), obs.F("kind", j.kind), obs.F("circuit", j.circuit),
			obs.F("key", short(j.key)), obs.F("priority", j.priority))
		j.queueSpan = queueCol.StartSpan("srv.queue", obs.F("job", j.id), obs.F("kind", j.kind))
		err = s.queue.push(j)
	}
	s.mu.Lock()
	if err != nil {
		delete(s.jobs, j.id)
		if j.key != "" && s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		s.mu.Unlock()
		j.queueSpan.End(obs.F("rejected", true))
		j.events.close()
		return err
	}
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > jobHistory { // forget the oldest job
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
	s.mu.Unlock()
	s.cEnqueued.Inc()
	return nil
}

// lookup returns a retained job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// work is one pool worker: drain the queue until it closes.
func (s *Server) work(workerID int) {
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job: close the queue span (its duration is the
// job's queue wait), a last-moment cache check (an identical job may have
// completed between submission and dequeue), then the computation under
// its deadline on a "work" child span, then persistence and completion.
func (s *Server) runJob(j *job) {
	j.setState(stateRunning)
	qwait := j.queueSpan.End(obs.F("job", j.id))
	s.col.Histogram("srv.queuewait."+j.kind, latencyBounds...).Observe(qwait.Seconds())
	s.qwaitAll.Observe(qwait.Seconds())
	s.appendJournal(journalRecord{V: journalVersion, Op: opStart, Job: j.id, Seq: j.seq, Kind: j.kind})

	s.busy.Add(1)
	s.gBusy.Add(1)
	defer func() {
		s.busy.Add(-1)
		s.gBusy.Add(-1)
	}()

	// The worker's collector carries the "work" child span identity; the
	// run closure hands it to the engine (opts.Obs), so engine phase
	// events inherit the job's trace without the engine knowing about
	// traces at all.
	wcol := obs.New(s.col.Metrics(), obs.AnnotateTrace(j.sink, j.tc.Child("work")))
	span := wcol.StartSpan("srv.job", obs.F("job", j.id), obs.F("kind", j.kind))

	var (
		data   []byte
		err    error
		cached bool
	)
	if j.key != "" && s.store != nil {
		if b, ok := s.store.Get(j.key); ok {
			data, cached = b, true
		}
	}
	if !cached {
		ctx := context.Background()
		ckpt := ""
		if s.ckptDir != "" {
			// The checkpoint path is a pure function of the (stable) job id,
			// so a replayed job finds exactly the file its first life wrote.
			ckpt = filepath.Join(s.ckptDir, j.id+".ckpt")
			ctx = withCheckpoint(ctx, ckpt)
		}
		cancel := context.CancelFunc(func() {})
		if j.timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, j.timeout)
		}
		func() {
			defer cancel()
			// A panic in one job must not take the worker (or the other
			// jobs) down; it fails this job with the typed error the rest
			// of the pipeline uses for recovered panics.
			defer func() {
				if r := recover(); r != nil {
					err = &runctl.PanicError{
						Op: "srv." + j.kind, Detail: "job " + j.id,
						Value: r, Stack: debug.Stack(),
					}
				}
			}()
			if ferr := runctl.Hit(FPWorker); ferr != nil {
				err = ferr
				return
			}
			// pprof labels attribute worker CPU samples to the job mix:
			// `go tool pprof` can slice a daemon profile by job kind and
			// circuit.
			pprof.Do(ctx, pprof.Labels("job_kind", j.kind, "circuit", j.circuit), func(ctx context.Context) {
				data, err = j.run(ctx, wcol)
			})
		}()
		if ckpt != "" {
			// The job is over either way; a leftover checkpoint would only
			// cost disk until the id recycles. Failed jobs drop theirs too —
			// replay re-runs only jobs interrupted by a crash, not jobs that
			// failed on their own.
			os.Remove(ckpt)
		}
		s.cExecuted.Inc()
		if err == nil && j.key != "" && s.store != nil {
			if perr := s.store.Put(j.key, data); perr != nil {
				// The response is still served; only reuse is lost.
				s.col.Counter("srv.store.put_errors").Inc()
			}
		}
	}
	if err != nil {
		s.cFailed.Inc()
	}
	d := span.End(obs.F("cached", cached), obs.F("ok", err == nil))
	s.col.Histogram("srv.latency."+j.kind, latencyBounds...).Observe(d.Seconds())
	if !cached {
		// Service time proper: what the worker spent computing, queue wait
		// and cache shortcuts excluded.
		s.col.Histogram("srv.service."+j.kind, latencyBounds...).Observe(d.Seconds())
	}

	s.mu.Lock()
	if j.key != "" && s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	done := journalRecord{V: journalVersion, Op: opDone, Job: j.id, Seq: j.seq, Kind: j.kind, OK: err == nil}
	if err != nil {
		done.Err = err.Error()
	}
	s.appendJournal(done)
	j.complete(data, err, cached)
	j.events.close()
}

// retryAfter computes the Retry-After a 503 carries: the p95 queue wait
// scaled by how loaded the queue is relative to the worker pool. A cold
// histogram (nothing dequeued yet) answers 1s; the ceiling is 120s so a
// pathological backlog never tells clients to go away for an hour.
func (s *Server) retryAfter() int {
	st := s.qwaitAll.Stats()
	if st.Count == 0 || st.P95 <= 0 {
		return 1
	}
	workers := float64(par.Workers(s.cfg.Workers))
	load := 1 + float64(s.queue.depthNow())/workers
	sec := int(math.Ceil(st.P95 * load))
	if sec < 1 {
		sec = 1
	}
	if sec > 120 {
		sec = 120
	}
	return sec
}

// latencyBounds cover 0.5ms to ~65s exponentially — the spread between a
// cache-adjacent lint job and a heavyweight ATPG run.
var latencyBounds = obs.ExpBounds(0.0005, 2, 18)

// Busy returns how many workers are executing a job right now (the
// /healthz figure alongside Queued).
func (s *Server) Busy() int { return int(s.busy.Load()) }

// Queued returns the current backlog depth (the /healthz figure).
func (s *Server) Queued() int { return s.queue.depthNow() }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Handler returns the HTTP API (see handlers.go for the routes).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, k := range kinds {
		mux.HandleFunc("POST /v1/"+k.name, s.handleSubmit(k))
	}
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	if s.cfg.Debug {
		mux.HandleFunc("POST /debug/failpoints", s.handleFailpoints)
	}
	return mux
}

// short abbreviates a content address for trace events.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
