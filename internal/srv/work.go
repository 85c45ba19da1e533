package srv

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/coopt"
	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/store"
)

// work is a parsed, canonicalized request ready for submission. The run
// closure receives the worker's trace-annotated collector: engine events
// emitted through it carry the job's trace/span identity, and the ctx
// carries the same obs.TraceContext for code that wants it directly.
//
// Building a work unit is deliberately separated from HTTP: the handlers
// build one from a decoded request, and journal replay builds the very
// same unit from the request JSON the journal recorded at admission —
// one code path, so a replayed job is indistinguishable from a freshly
// submitted one.
type work struct {
	kind     string
	circuit  string // short workload label ("s713", "d695", "bench", ...)
	key      string
	client   string // fairness bucket: API key or remote host ("" = anonymous)
	priority int
	timeout  time.Duration
	nocache  bool
	reqJSON  []byte // canonical request, journaled at admission for replay
	run      func(ctx context.Context, col *obs.Collector) ([]byte, error)
}

// submitCommon is the request envelope every POST endpoint shares.
type submitCommon struct {
	// Priority orders the queue within a client: higher runs first
	// (default 0). Across clients, fair round-robin dequeue dominates.
	Priority int `json:"priority"`
	// Async returns 202 + a job id immediately; poll /v1/jobs/{id}.
	Async bool `json:"async"`
	// TimeoutMS overrides the server's default per-job deadline.
	TimeoutMS int64 `json:"timeout_ms"`
	// NoCache forces a fresh computation and keeps its result out of the
	// store (and out of coalescing).
	NoCache bool `json:"nocache"`
}

// envelope returns the request envelope; every request type embeds it.
func (c submitCommon) envelope() submitCommon { return c }

// apply copies the envelope onto the work unit.
func (c submitCommon) apply(s *Server, wk *work) {
	wk.priority = c.Priority
	wk.nocache = c.NoCache
	wk.timeout = s.cfg.JobTimeout
	if c.TimeoutMS > 0 {
		wk.timeout = time.Duration(c.TimeoutMS) * time.Millisecond
	}
}

// ckptKey carries the job's checkpoint path through the run context; the
// ATPG closure picks it up so a replayed job resumes mid-run state
// instead of recomputing from scratch. Absent (journal disabled) it is
// simply "".
type ckptKey struct{}

func withCheckpoint(ctx context.Context, path string) context.Context {
	return context.WithValue(ctx, ckptKey{}, path)
}

// checkpointPath returns the per-job checkpoint file the server assigned,
// or "" when checkpointing is off.
func checkpointPath(ctx context.Context) string {
	p, _ := ctx.Value(ckptKey{}).(string)
	return p
}

// --- atpg ----------------------------------------------------------------

// atpgRequest runs PODEM test generation on a netlist. Exactly one of
// bench (a .bench source) or standin (a generated ISCAS'89 stand-in name)
// selects the circuit.
type atpgRequest struct {
	submitCommon
	Bench   string       `json:"bench"`
	Standin string       `json:"standin"`
	Options *atpgOptions `json:"options"`
}

// atpgOptions mirrors the atpg.Options knobs that are meaningful over the
// wire. Pointers distinguish "absent" (default) from explicit zeros.
type atpgOptions struct {
	Backtrack      int    `json:"backtrack"`
	Random         *int   `json:"random"`
	Compact        *bool  `json:"compact"`
	DynamicCompact bool   `json:"dynamic_compact"`
	DynamicTargets int    `json:"dynamic_targets"`
	Passes         int    `json:"passes"`
	Seed           *int64 `json:"seed"`
	Workers        int    `json:"workers"`
}

// buildOptions resolves the wire options onto the experiment defaults.
func (o *atpgOptions) buildOptions() atpg.Options {
	opts := atpg.DefaultOptions()
	// Jobs default to serial ATPG internals: the pool supplies cross-job
	// parallelism, and one job must not monopolize every core.
	opts.Workers = 1
	if o == nil {
		return opts
	}
	if o.Backtrack > 0 {
		opts.BacktrackLimit = o.Backtrack
	}
	if o.Random != nil {
		opts.RandomPatterns = *o.Random
	}
	if o.Compact != nil {
		opts.Compact = *o.Compact
	}
	opts.DynamicCompact = o.DynamicCompact
	if o.DynamicTargets > 0 {
		opts.DynamicTargets = o.DynamicTargets
	}
	if o.Passes > 0 {
		opts.Passes = o.Passes
	}
	if o.Seed != nil {
		opts.Seed = *o.Seed
	}
	if o.Workers > 0 {
		opts.Workers = o.Workers
	}
	return opts
}

// atpgWork validates an ATPG request and builds its work unit.
func atpgWork(req *atpgRequest) (work, error) {
	var (
		c   *netlist.Circuit
		err error
	)
	switch {
	case req.Standin != "" && req.Bench != "":
		return work{}, fmt.Errorf("give bench or standin, not both")
	case req.Standin != "":
		prof, ok := bench89.ProfileByName(req.Standin)
		if !ok {
			return work{}, fmt.Errorf("unknown stand-in %q", req.Standin)
		}
		c, err = bench89.Generate(prof)
	case req.Bench != "":
		c, err = netlist.ParseBenchString("request.bench", req.Bench)
	default:
		return work{}, fmt.Errorf("need bench or standin")
	}
	if err != nil {
		return work{}, err
	}
	opts := req.Options.buildOptions()
	// The content address binds the canonical circuit structure to every
	// option that steers the search — the same fingerprint checkpoints
	// use — so formatting differences or a changed seed never alias.
	// (opts.Obs is set per run and deliberately excluded from the hash.)
	canon := netlist.BenchString(c)
	key := store.Key("atpg", []byte(canon), atpg.OptionsHash(c, atpg.NumFaultsFor(c), opts))
	return work{
		circuit: c.Name,
		key:     key,
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			o := opts
			o.Obs = col // engine phase events inherit the job's trace identity
			if ckpt := checkpointPath(ctx); ckpt != "" {
				// Journal-backed daemons checkpoint every job: a crash-killed
				// run resumes bit-identically on replay instead of starting
				// over. Resume tolerates a missing file (fresh run).
				o.Checkpoint = &atpg.CheckpointConfig{Path: ckpt, Every: 16, Resume: true}
			}
			res, rerr := atpg.GenerateContext(ctx, c, o)
			if rerr != nil {
				return nil, rerr
			}
			return atpg.EncodeSummary(res.Summary(c.Name))
		},
	}, nil
}

// --- tdv -----------------------------------------------------------------

// tdvRequest computes the monolithic-vs-modular TDV comparison for an SOC
// profile: either an inline .soc source or a built-in ITC'02 name.
type tdvRequest struct {
	submitCommon
	SOC     string `json:"soc"`
	Builtin string `json:"builtin"`
	TMono   *int   `json:"tmono"`
}

// resolveSOC loads the SOC profile a tdv or schedule request names: an
// inline .soc source or a built-in ITC'02 name, exactly one of the two.
func resolveSOC(src, builtin string) (*core.SOC, error) {
	switch {
	case builtin != "" && src != "":
		return nil, fmt.Errorf("give soc or builtin, not both")
	case builtin != "":
		return itc02.SOCByName(builtin)
	case src != "":
		return itc02.ParseSOC(strings.NewReader(src))
	}
	return nil, fmt.Errorf("need soc or builtin")
}

// tdvWork validates a TDV request and builds its work unit.
func tdvWork(req *tdvRequest) (work, error) {
	soc, err := resolveSOC(req.SOC, req.Builtin)
	if err != nil {
		return work{}, err
	}
	if req.TMono != nil {
		soc.TMono = *req.TMono
	}
	// Canonicalizing after the override folds tmono into the address.
	canon := itc02.SOCString(soc)
	return work{
		circuit: soc.Name,
		key:     store.Key("tdv", []byte(canon), "v1"),
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			span := col.StartSpan("tdv.analyze", obs.F("soc", soc.Name))
			rep := soc.Analyze()
			span.End(obs.F("modules", len(soc.Modules())))
			b, merr := json.Marshal(rep)
			if merr != nil {
				return nil, merr
			}
			return append(b, '\n'), nil
		},
	}, nil
}

// --- lint ----------------------------------------------------------------

// lintRequest runs the static design-rule checks over an inline source:
// the netlist DRC for bench, the SOC rules for soc.
type lintRequest struct {
	submitCommon
	Bench string `json:"bench"`
	SOC   string `json:"soc"`
}

// lintArtifact is the stored/served lint result.
type lintArtifact struct {
	Errors   int        `json:"errors"`
	Warnings int        `json:"warnings"`
	Infos    int        `json:"infos"`
	Diags    []lintDiag `json:"diags"`
}

type lintDiag struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line,omitempty"`
	Subject  string `json:"subject,omitempty"`
	Msg      string `json:"msg"`
}

// lintWork validates a lint request and builds its work unit.
func lintWork(req *lintRequest) (work, error) {
	var (
		mode string
		src  string
	)
	switch {
	case req.Bench != "" && req.SOC != "":
		return work{}, fmt.Errorf("give bench or soc, not both")
	case req.Bench != "":
		mode, src = "bench", req.Bench
	case req.SOC != "":
		mode, src = "soc", req.SOC
	default:
		return work{}, fmt.Errorf("need bench or soc")
	}
	return work{
		circuit: mode,
		key:     store.Key("lint", []byte(src), mode),
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			span := col.StartSpan("lint.check", obs.F("mode", mode))
			var rep *lint.Report
			if mode == "bench" {
				rep = lint.CheckBench("request.bench", src, lint.DefaultOptions())
			} else {
				rep = lint.CheckSOCSource("request.soc", src)
			}
			span.End(obs.F("diags", len(rep.Diags)))
			rep.Sort()
			art := lintArtifact{
				Errors:   rep.Count(lint.Error),
				Warnings: rep.Count(lint.Warning),
				Infos:    rep.Count(lint.Info),
				Diags:    make([]lintDiag, 0, len(rep.Diags)),
			}
			for _, d := range rep.Diags {
				art.Diags = append(art.Diags, lintDiag{
					Rule:     d.Rule,
					Severity: d.Sev.String(),
					File:     d.Pos.File,
					Line:     d.Pos.Line,
					Subject:  d.Subject,
					Msg:      d.Msg,
				})
			}
			b, merr := json.Marshal(art)
			if merr != nil {
				return nil, merr
			}
			return append(b, '\n'), nil
		},
	}, nil
}

// --- schedule ------------------------------------------------------------

// scheduleRequest runs the wrapper/TAM co-optimizer on an SOC profile:
// either an inline .soc source or a built-in ITC'02 name, scheduled onto
// a TAM of the given width, optionally power-budgeted and ordered by
// precedence edges.
type scheduleRequest struct {
	submitCommon
	SOC         string      `json:"soc"`
	Builtin     string      `json:"builtin"`
	TAM         int         `json:"tam"`
	PowerBudget int64       `json:"power_budget"`
	Precedence  [][2]string `json:"precedence"`
}

// scheduleWork validates a schedule request and builds its work unit. The
// content address binds the canonical SOC text to the options fingerprint
// (width, budget, precedence), so a changed knob never aliases a cached
// schedule.
func scheduleWork(req *scheduleRequest) (work, error) {
	soc, err := resolveSOC(req.SOC, req.Builtin)
	if err != nil {
		return work{}, err
	}
	if req.TAM < 1 || req.TAM > coopt.MaxTAMWidth {
		return work{}, fmt.Errorf("tam must be 1..%d, got %d", coopt.MaxTAMWidth, req.TAM)
	}
	opts := coopt.Options{
		TAMWidth:    req.TAM,
		PowerBudget: req.PowerBudget,
		Precedence:  req.Precedence,
	}
	canon := itc02.SOCString(soc)
	return work{
		circuit: soc.Name,
		key:     store.Key("schedule", []byte(canon), opts.OptionsHash()),
		run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
			span := col.StartSpan("schedule.optimize",
				obs.F("soc", soc.Name), obs.F("tam", opts.TAMWidth))
			sch, serr := coopt.Optimize(soc, opts)
			if serr != nil {
				span.End(obs.F("error", serr.Error()))
				return nil, serr
			}
			span.End(obs.F("total_time", sch.TotalTime), obs.F("lb_ratio", sch.LBRatio))
			return sch.Encode()
		},
	}, nil
}

// --- served kinds --------------------------------------------------------

// workKind is one served workload kind. Its name routes POST /v1/<name>,
// tags the kind's journal records and suffixes its per-kind metrics.
// newReq returns an empty request to decode into; build turns the decoded
// request into its work unit, with the kind, the envelope and the
// canonical request JSON applied, and reports whether the client asked for
// async.
type workKind struct {
	name   string
	newReq func() any
	build  func(s *Server, req any) (wk work, async bool, err error)
}

// kinds is the table of served workload kinds: Handler registers one
// route per entry and journal replay looks recorded kinds up here.
var kinds = []workKind{
	kindOf("atpg", atpgWork),
	kindOf("tdv", tdvWork),
	kindOf("lint", lintWork),
	kindOf("schedule", scheduleWork),
}

// kindOf binds a kind name to its request type R and work builder.
func kindOf[R any, P interface {
	*R
	envelope() submitCommon
}](name string, build func(P) (work, error)) workKind {
	return workKind{
		name:   name,
		newReq: func() any { return P(new(R)) },
		build: func(s *Server, req any) (work, bool, error) {
			p := req.(P)
			wk, err := build(p)
			if err != nil {
				return work{}, false, err
			}
			wk.kind = name
			env := p.envelope()
			env.apply(s, &wk)
			wk.reqJSON = marshalReq(p)
			return wk, env.Async, nil
		},
	}
}

// replayWork rebuilds a work unit from the request JSON the journal
// recorded at admission. An unknown kind — a journal written by a newer
// (or differently built) daemon — is an error the caller degrades on,
// never a panic.
func replayWork(s *Server, kind string, raw []byte) (work, error) {
	for _, k := range kinds {
		if k.name != kind {
			continue
		}
		req := k.newReq()
		err := json.Unmarshal(raw, req)
		var wk work
		if err == nil {
			wk, _, err = k.build(s, req)
		}
		if err != nil {
			return work{}, fmt.Errorf("replay %s: %w", kind, err)
		}
		return wk, nil
	}
	return work{}, fmt.Errorf("unsupported job kind %q", kind)
}

// marshalReq renders the decoded request back to canonical JSON for the
// journal. The request types marshal losslessly, so a replayed job sees
// exactly the envelope and payload the original admission saw.
func marshalReq(req any) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		return nil // unreachable for our request types; journal omits req
	}
	return b
}
