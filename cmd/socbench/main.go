// socbench is the repository's end-to-end benchmark: one command that runs
// a named workload, checks the program's outputs, and only then prints
// every metric by name with its unit, as one JSON object on the last line
// of standard output.
//
// Workloads (README.md says why each exists):
//
//	live_repro   Tables 1-4 and Figures 1-5, then live SOC1 and SOC2 ATPG
//	fault_grade  PPSFP grading of seeded random patterns on eight netlists
//	sat_settle   s953 ATPG at backtrack limit 3, then SAT settlement
//	serve_warm   open-loop Zipf traffic against an in-process srv, warm store
//	serve_churn  the same server with a small store: fresh keys and evictions
//
// Usage, from the repository root:
//
//	bash cmd/socbench/run.sh --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the workload runs twice in the process, untraced and then traced; the
// result carries the per-layer metrics of the traced pass, the harness's
// spans are summarized on standard error and, with --spans, written as
// JSONL. A failed output check exits 1 without printing a result.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/runctl"
)

const prog = "socbench"

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"live_repro":  liveRepro,
	"fault_grade": faultGrade,
	"sat_settle":  satSettle,
	"serve_warm":  func(e *env) (*outcome, error) { return serve(e, serveWarm) },
	"serve_churn": func(e *env) (*outcome, error) { return serve(e, serveChurn) },
}

// env is what a workload runner receives.
type env struct {
	seed    int64
	seconds time.Duration // how long the timed phase runs
	workers int           // nproc: the worker count of every layer
	golden  string        // directory of the golden files
	scratch string        // directory inside the checkout for store files
	tr      *tracer
	// col instruments the program's layers during the timed operations of
	// a traced pass: a metrics-only collector over reg. It is nil on an
	// untraced pass, which measures the zero-cost path.
	col *obs.Collector
	reg *obs.Registry
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setup []time.Duration // one per set-up
	// ops holds one duration per timed operation; on the serving
	// workloads, one latency per request at the reporting rate.
	ops               []time.Duration
	attempted, failed int
	// serving marks the open-loop workloads: maxRate is the request rate
	// their highest passing ladder step sustained, and their per-layer
	// counts are totals over the timed phase read from snap. Batch
	// workloads report operations per second and per-operation layer
	// values from env.reg.
	serving bool
	maxRate float64
	snap    obs.Snapshot
	// layers holds per-layer values the workload measured itself.
	layers map[string]float64
}

// layerAdd adds v to the workload-measured per-layer value name.
func (o *outcome) layerAdd(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers[name] += v
}

// setUp runs a workload's set-up n times, each under its own root span,
// and records each one's length in o.setup. A set-up is everything a run
// does before its first timed operation, the verify pass included, and
// each repeat must reproduce the first one's outputs. setup_s is the
// median, so one slow set-up does not move it; workloads whose set-up is
// cheap repeat it more often. once reports the set-up's per-layer times
// through layer, which records their mean over the n set-ups.
func setUp(e *env, o *outcome, n int, once func(sp *tspan, layer func(string, time.Duration)) error) error {
	layer := func(name string, d time.Duration) { o.layerAdd(name, d.Seconds()/float64(n)) }
	for i := 0; i < n; i++ {
		sp := e.tr.start("setup", nil)
		if err := once(sp, layer); err != nil {
			return err
		}
		o.setup = append(o.setup, sp.end())
	}
	return nil
}

// another reports whether a batch workload whose timed phase began at
// start runs one more operation: always until it has minOps of them, and
// then while one more, as long as the last, still ends within --seconds.
func another(e *env, o *outcome, minOps int, start time.Duration) bool {
	if len(o.ops) < minOps {
		return true
	}
	return e.tr.now()-start+o.ops[len(o.ops)-1] <= e.seconds
}

// decl declares one metric and its unit.
type decl struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload prints all
// of them. BENCHMARK.json declares the same list.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"max_rate", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run; a layer a workload does not
// exercise reads 0. BENCHMARK.json declares the same list.
var perLayer = []decl{
	{"atpg.mono_s", "s"},
	{"atpg.podem_s", "s"},
	{"atpg.podem_share", "ratio"},
	{"atpg.decisions", "count"},
	{"atpg.backtracks", "count"},
	{"atpg.implications", "count"},
	{"atpg.faults_targeted", "count"},
	{"atpg.aborted", "count"},
	{"atpg.percore_s", "s"},
	{"atpg.percore_balance", "ratio"},
	{"atpg.random_s", "s"},
	{"atpg.compact_s", "s"},
	{"faultsim.patterns_applied", "count"},
	{"faultsim.batches", "count"},
	{"faultsim.faults_dropped", "count"},
	{"faultsim.compile_s", "s"},
	{"faultsim.simulate_s", "s"},
	{"faultsim.shard_balance", "ratio"},
	{"sat.settle_s", "s"},
	{"sat.conflicts", "count"},
	{"sat.conflicts_per_s", "1/s"},
	{"sat.proved_redundant", "count"},
	{"sat.cubes", "count"},
	{"bench89.generate_s", "s"},
	{"soc.flatten_s", "s"},
	{"core.tables_s", "s"},
	{"srv.queuewait_p50_ms", "ms"},
	{"srv.queuewait_p99_ms", "ms"},
	{"srv.service_p99_ms.atpg", "ms"},
	{"srv.service_p99_ms.tdv", "ms"},
	{"srv.service_p99_ms.lint", "ms"},
	{"srv.service_p99_ms.schedule", "ms"},
	{"srv.jobs_executed", "count"},
	{"srv.jobs_coalesced", "count"},
	{"srv.queue_rejected", "count"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.evictions", "count"},
	{"store.hit_ratio", "ratio"},
	{"serve.p99_ms", "ms"},
	{"serve.fresh_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"obs.trace_overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	tr := newTracer()
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 12, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and then traced and prints the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, also write the harness spans to this JSONL `file`")
	golden := fs.String("golden", "cmd/socbench/testdata", "`directory` of the golden files")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	runner, ok := workloads[*workload]
	switch {
	case fs.NArg() > 0:
		cli.Errorf(prog, "unexpected argument %q", fs.Arg(0))
		return cli.ExitUsage
	case !ok:
		cli.Errorf(prog, "unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
		return cli.ExitUsage
	case *seconds < 0:
		cli.Errorf(prog, "--seconds must be >= 0")
		return cli.ExitUsage
	case *trace != 0 && *trace != 1:
		cli.Errorf(prog, "--trace must be 0 or 1")
		return cli.ExitUsage
	case *spans != "" && *trace != 1:
		cli.Errorf(prog, "--spans needs --trace 1")
		return cli.ExitUsage
	}

	if err := os.MkdirAll(".socbench", 0o777); err != nil {
		cli.Errorf(prog, "%v", err)
		return cli.ExitRuntime
	}
	scratch, err := os.MkdirTemp(".socbench", "run-")
	if err != nil {
		cli.Errorf(prog, "%v", err)
		return cli.ExitRuntime
	}
	defer os.RemoveAll(scratch)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(),
		golden:  *golden,
		scratch: scratch,
		tr:      tr,
	}
	base, err := runner(e)
	if err != nil {
		cli.Errorf(prog, "%s: %v", *workload, err)
		return cli.ExitRuntime
	}
	res := result{Correct: true, Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	var values map[string]float64
	declared := endToEnd
	if *trace == 0 {
		if values, err = endToEndValues(base); err != nil {
			cli.Errorf(prog, "%v", err)
			return cli.ExitRuntime
		}
	} else {
		tr.keep = true
		tr.run = fmt.Sprintf("%s/seed=%d", *workload, *seed)
		e.reg = obs.NewRegistry()
		e.col = obs.New(e.reg, nil)
		traced, err := runner(e)
		if err != nil {
			cli.Errorf(prog, "%s (traced): %v", *workload, err)
			return cli.ExitRuntime
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		snap := e.reg.Snapshot()
		if traced.serving {
			snap = traced.snap
		}
		overhead := ratio(median(traced.ops).Seconds(), median(base.ops).Seconds()) - 1
		values = layerValues(traced, snap, overhead)
		declared = perLayer

		records := tr.records()
		fmt.Fprintf(os.Stderr, "%s: traced pass of %s, %d spans\n%s", prog, *workload, len(records), formatSpanTable(spanTable(records)))
		if *spans != "" {
			if err := runctl.WriteFileAtomic(*spans, spansJSONL(records)); err != nil {
				cli.Errorf(prog, "%v", err)
				return cli.ExitRuntime
			}
		}
	}
	for _, d := range declared {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-30s %16.6f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "%s: %d operations timed (serving: requests at the reporting rate), %d set-ups\n",
		prog, len(base.ops), len(base.setup))
	line, err := json.Marshal(res)
	if err != nil {
		cli.Errorf(prog, "%v", err)
		return cli.ExitRuntime
	}
	fmt.Printf("%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEndValues computes the end-to-end metrics of an untraced pass.
func endToEndValues(o *outcome) (map[string]float64, error) {
	rate := o.maxRate
	if !o.serving {
		var total time.Duration
		for _, d := range o.ops {
			total += d
		}
		rate = ratio(float64(len(o.ops)), total.Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":     median(o.setup).Seconds(),
		"op_p50_ms":   ms(median(o.ops)),
		"max_rate":    rate,
		"peak_rss_mb": rss,
	}, nil
}

// layerValues computes the per-layer metrics of a traced pass from the
// program's own timers and counters in s, plus what the workload measured
// itself. Batch workloads report per timed operation; serving workloads
// report totals over the timed phase.
func layerValues(o *outcome, s obs.Snapshot, overhead float64) map[string]float64 {
	div := float64(len(o.ops))
	if o.serving || div == 0 {
		div = 1
	}
	t := func(name string) float64 { return s.Timers[name].TotalSec / div }
	c := func(name string) float64 { return float64(s.Counters[name]) / div }
	histMs := func(name string, q float64) float64 { return 1000 * s.Histograms[name].Quantile(q) }

	var workerMin, workerMax float64
	first := true
	for name, ts := range s.Timers {
		if !strings.HasPrefix(name, "faultsim.worker.") {
			continue
		}
		if first || ts.TotalSec < workerMin {
			workerMin = ts.TotalSec
		}
		if first || ts.TotalSec > workerMax {
			workerMax = ts.TotalSec
		}
		first = false
	}

	m := map[string]float64{
		"atpg.mono_s":                 t("live.mono"),
		"atpg.podem_s":                t("atpg.phase.podem"),
		"atpg.podem_share":            ratio(t("atpg.phase.podem"), t("atpg.generate")),
		"atpg.decisions":              c("atpg.decisions"),
		"atpg.backtracks":             c("atpg.backtracks"),
		"atpg.implications":           c("atpg.implications"),
		"atpg.faults_targeted":        c("atpg.faults.targeted"),
		"atpg.aborted":                c("atpg.aborted"),
		"atpg.percore_s":              t("live.percore"),
		"atpg.percore_balance":        ratio(t("live.core"), float64(s.Gauges["live.workers"])*t("live.percore")),
		"atpg.random_s":               t("atpg.phase.random"),
		"atpg.compact_s":              t("atpg.phase.compact"),
		"faultsim.patterns_applied":   c("faultsim.patterns.applied"),
		"faultsim.batches":            c("faultsim.batches"),
		"faultsim.faults_dropped":     c("faultsim.faults.dropped"),
		"faultsim.shard_balance":      ratio(workerMin, workerMax),
		"sat.settle_s":                t("atpg.phase.settle"),
		"sat.conflicts":               c("sat.conflicts"),
		"sat.conflicts_per_s":         ratio(c("sat.conflicts"), t("atpg.phase.settle")),
		"sat.proved_redundant":        c("sat.proved_redundant"),
		"sat.cubes":                   c("sat.cubes"),
		"bench89.generate_s":          t("bench89.generate"),
		"soc.flatten_s":               t("live.flatten"),
		"srv.queuewait_p50_ms":        histMs("srv.queuewait.all", 0.50),
		"srv.queuewait_p99_ms":        histMs("srv.queuewait.all", 0.99),
		"srv.service_p99_ms.atpg":     histMs("srv.service.atpg", 0.99),
		"srv.service_p99_ms.tdv":      histMs("srv.service.tdv", 0.99),
		"srv.service_p99_ms.lint":     histMs("srv.service.lint", 0.99),
		"srv.service_p99_ms.schedule": histMs("srv.service.schedule", 0.99),
		"srv.jobs_executed":           c("srv.jobs.executed"),
		"srv.jobs_coalesced":          c("srv.jobs.coalesced"),
		"srv.queue_rejected":          c("srv.queue.rejected"),
		"store.hits":                  c("store.hits"),
		"store.misses":                c("store.misses"),
		"store.puts":                  c("store.puts"),
		"store.evictions":             c("store.evictions"),
		"store.hit_ratio":             ratio(c("store.hits"), c("store.hits")+c("store.misses")),
		"obs.trace_overhead":          overhead,
	}
	for k, v := range o.layers {
		m[k] = v
	}
	return m
}

// diffSnapshot returns the metrics recorded between two snapshots of one
// registry: counters, timer totals and histogram buckets are differences.
// Gauges, timer maxima and histogram extremes keep their later values.
func diffSnapshot(after, before obs.Snapshot) obs.Snapshot {
	out := after
	out.Counters = map[string]int64{}
	for k, v := range after.Counters {
		out.Counters[k] = v - before.Counters[k]
	}
	out.Timers = map[string]obs.TimerStats{}
	for k, t := range after.Timers {
		b := before.Timers[k]
		t.Count -= b.Count
		t.TotalSec -= b.TotalSec
		out.Timers[k] = t
	}
	out.Histograms = map[string]obs.HistogramStats{}
	for k, h := range after.Histograms {
		if b, ok := before.Histograms[k]; ok {
			counts := make([]int64, len(h.Counts))
			for i := range counts {
				counts[i] = h.Counts[i] - b.Counts[i]
			}
			h.Counts, h.Count, h.Sum = counts, h.Count-b.Count, h.Sum-b.Sum
		}
		out.Histograms[k] = h
	}
	return out
}

// median is the 0.5 quantile.
func median(d []time.Duration) time.Duration { return quantile(d, 0.5) }

// quantile interpolates linearly between the closest ranks of d; 0 when d
// is empty.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// checkGolden compares got with the golden file; on a mismatch the error
// carries got, so an intended change can be reviewed and copied in.
func checkGolden(e *env, file string, got []byte) error {
	want, err := os.ReadFile(filepath.Join(e.golden, file))
	if err != nil {
		return fmt.Errorf("golden %s: %w; got:\n%s", file, err, got)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("output differs from golden %s; got:\n%s", file, got)
	}
	return nil
}

// goldenJSON renders v the way the golden files store it.
func goldenJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // the golden types are plain data and always encode
	}
	return append(b, '\n')
}
