package lint

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/coopt"
	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/obs"
)

// rulesOf extracts the multiset of rule IDs, sorted by the report's order.
func rulesOf(r *Report) []string {
	ids := make([]string, len(r.Diags))
	for i, d := range r.Diags {
		ids[i] = d.Rule
	}
	return ids
}

func hasRule(r *Report, id string) bool {
	for _, d := range r.Diags {
		if d.Rule == id {
			return true
		}
	}
	return false
}

func TestCatalogIsConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, rule := range Catalog {
		if seen[rule.ID] {
			t.Errorf("duplicate rule ID %s", rule.ID)
		}
		seen[rule.ID] = true
		if rule.Doc == "" {
			t.Errorf("rule %s has no description", rule.ID)
		}
		if RuleSeverity(rule.ID) != rule.Sev {
			t.Errorf("rule %s severity lookup mismatch", rule.ID)
		}
	}
	if RuleSeverity("NOPE999") != Error {
		t.Error("unknown rule must default to error severity")
	}
}

func TestCheckBenchCleanSource(t *testing.T) {
	r := CheckBench("clean", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", DefaultOptions())
	if len(r.Diags) != 0 {
		t.Fatalf("clean source produced diagnostics: %v", r.Diags)
	}
}

func TestCheckBenchRules(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // rule that must fire
	}{
		{"cycle", "INPUT(a)\nOUTPUT(v)\nu = AND(a, w)\nv = NOT(u)\nw = BUF(v)\n", "NL001"},
		{"undriven", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "NL002"},
		{"undriven-output", "INPUT(a)\nOUTPUT(nowhere)\nOUTPUT(a)\n", "NL002"},
		{"multidriven", "INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = AND(b, b)\n", "NL003"},
		{"dead", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ns1 = DFF(n1)\nn1 = NOT(s1)\n", "NL004"},
		{"unobservable", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nlost = XOR(a, b)\n", "NL005"},
		{"dupdef", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", "NL006"},
		{"arity", "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n", "NL007"},
		{"badtype", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "NL008"},
		{"syntax", "INPUT(a)\nOUTPUT(a)\nthis is not bench\n", "NL009"},
		{"unused-input", "INPUT(a)\nINPUT(c)\nOUTPUT(y)\ny = NOT(a)\n", "NL012"},
	}
	for _, tc := range cases {
		r := CheckBench(tc.name, tc.src, DefaultOptions())
		if !hasRule(r, tc.want) {
			t.Errorf("%s: rule %s did not fire; got %v", tc.name, tc.want, rulesOf(r))
		}
	}
}

func TestCheckBenchCyclePathReported(t *testing.T) {
	r := CheckBench("c", "INPUT(a)\nOUTPUT(v)\nu = AND(a, w)\nv = NOT(u)\nw = BUF(v)\n", DefaultOptions())
	var diag *Diagnostic
	for i := range r.Diags {
		if r.Diags[i].Rule == "NL001" {
			diag = &r.Diags[i]
		}
	}
	if diag == nil {
		t.Fatalf("no NL001: %v", r.Diags)
	}
	if !strings.Contains(diag.Msg, " -> ") {
		t.Errorf("cycle path missing from %q", diag.Msg)
	}
	for _, net := range []string{"u", "v", "w"} {
		if !strings.Contains(diag.Msg, net) {
			t.Errorf("cycle path lacks %s: %q", net, diag.Msg)
		}
	}
}

// TestCheckBenchMultipleFindings: the lenient source pass must report every
// defect in one run, not stop at the first like the parser.
func TestCheckBenchMultipleFindings(t *testing.T) {
	src := "INPUT(a)\ngarbage line\nOUTPUT(y)\ny = FROB(a)\nz = AND(a)\nz = NOT(a)\n"
	r := CheckBench("multi", src, DefaultOptions())
	for _, want := range []string{"NL009", "NL008", "NL007", "NL006"} {
		if !hasRule(r, want) {
			t.Errorf("rule %s missing; got %v", want, rulesOf(r))
		}
	}
}

func TestCheckBenchFanoutThreshold(t *testing.T) {
	var b strings.Builder
	b.WriteString("INPUT(a)\n")
	for i := 0; i < 5; i++ {
		b.WriteString("g" + string(rune('0'+i)) + " = NOT(a)\n")
		b.WriteString("OUTPUT(g" + string(rune('0'+i)) + ")\n")
	}
	r := CheckBench("fan", b.String(), Options{MaxFanout: 4})
	if !hasRule(r, "NL010") {
		t.Errorf("NL010 did not fire at fanout 5 > 4: %v", rulesOf(r))
	}
	r = CheckBench("fan", b.String(), Options{MaxFanout: 5})
	if hasRule(r, "NL010") {
		t.Errorf("NL010 fired at fanout 5 <= 5")
	}
}

func TestCheckBenchSCOAPRule(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n"
	if r := CheckBench("s", src, Options{SCOAPLimit: 1}); !hasRule(r, "NL011") {
		t.Errorf("NL011 did not fire with limit 1: %v", rulesOf(r))
	}
	if r := CheckBench("s", src, Options{SCOAPLimit: 1000}); hasRule(r, "NL011") {
		t.Error("NL011 fired on a trivial circuit with a huge limit")
	}
}

func TestReportSortAndText(t *testing.T) {
	r := &Report{}
	r.Add("NL002", Pos{File: "b.bench", Line: 3}, "x", "second")
	r.Add("NL001", Pos{File: "a.bench", Line: 9}, "y", "first")
	r.Sort()
	if r.Diags[0].Pos.File != "a.bench" {
		t.Errorf("sort did not order by file: %v", rulesOf(r))
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "a.bench:9: error: NL001: first") {
		t.Errorf("text rendering wrong:\n%s", out)
	}
	if !strings.Contains(out, "2 error(s), 0 warning(s), 0 info(s)") {
		t.Errorf("summary line missing:\n%s", out)
	}
}

func TestReportEmitJSONL(t *testing.T) {
	r := &Report{}
	r.Add("SOC008", Pos{File: "x.soc", Line: 2}, "CoreA", "sum mismatch")
	var sb strings.Builder
	sink := obs.NewJSONLSink(&sb)
	r.EmitTo(sink)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	line := sb.String()
	for _, want := range []string{
		`"event":"lint.diag"`, `"rule":"SOC008"`, `"severity":"error"`,
		`"file":"x.soc"`, `"line":2`, `"subject":"CoreA"`,
		`"ts":"0001-01-01T00:00:00Z"`, // zero time: lint output is wall-clock free
	} {
		if !strings.Contains(line, want) {
			t.Errorf("JSONL missing %s:\n%s", want, line)
		}
	}
}

// socRuleCases holds one .soc source per structural and bookkeeping rule;
// FuzzCheckSOCSource seeds from it too.
var socRuleCases = []struct {
	name string
	src  string
	want string
}{
	{"syntax", "soc x\nmodule A t nope\ntop A\n", "SOC001"},
	{"dup", "soc x\nmodule A t 1 s 1\nmodule A t 2\ntop A\n", "SOC002"},
	{"undef-child", "soc x\nmodule A t 1 children B\ntop A\n", "SOC003"},
	{"two-parents", "soc x\nmodule A t 1 children C\nmodule B t 1 children C\nmodule C t 1\nmodule R t 1 children A,B\ntop R\n", "SOC004"},
	{"top-embedded", "soc x\nmodule A t 1 children B\nmodule B t 1 children A\ntop A\n", "SOC005"},
	{"no-top", "soc x\nmodule A t 1\n", "SOC006"},
	{"orphan", "soc x\nmodule A t 1\nmodule B t 1\ntop A\n", "SOC007"},
	{"sc-mismatch", "soc x\nmodule A s 10 t 1 sc 4,4\ntop A\n", "SOC008"},
	{"scan-no-patterns", "soc x\nmodule A s 10 t 0\ntop A\n", "SOC009"},
	{"eq2", "soc x\ntmono 5\nmodule A t 9 s 1\ntop A\n", "SOC010"},
	{"no-tmono", "soc x\nmodule A t 1 s 1\ntop A\n", "SOC011"},
	{"zero-data", "soc x\nmodule A t 7\ntop A\n", "SOC012"},
	{"nameless", "module A t 1 s 1\ntop A\n", "SOC001"},
}

func TestCheckSOCSourceRules(t *testing.T) {
	for _, tc := range socRuleCases {
		r := CheckSOCSource(tc.name, tc.src)
		if !hasRule(r, tc.want) {
			t.Errorf("%s: rule %s did not fire; got %v", tc.name, tc.want, rulesOf(r))
		}
	}
}

// TestSOC013Unschedulable pins the ceiling exactly: a core declaring more
// pre-stitched chains than coopt.MaxTAMWidth can never connect them all,
// while one at the ceiling is still schedulable.
func TestSOC013Unschedulable(t *testing.T) {
	mkSrc := func(n int) string {
		sc := strings.TrimSuffix(strings.Repeat("1,", n), ",")
		return fmt.Sprintf("soc x\ntmono 10\nmodule A i 1 o 1 s %d t 1 sc %s\ntop A\n", n, sc)
	}
	r := CheckSOCSource("wide", mkSrc(coopt.MaxTAMWidth+1))
	if !hasRule(r, "SOC013") {
		t.Errorf("SOC013 did not fire at %d chains; got %v", coopt.MaxTAMWidth+1, rulesOf(r))
	}
	if r.HasErrors() {
		t.Errorf("SOC013 fixture tripped error-severity rules: %v", rulesOf(r))
	}
	r = CheckSOCSource("at-ceiling", mkSrc(coopt.MaxTAMWidth))
	if hasRule(r, "SOC013") {
		t.Errorf("SOC013 fired at exactly %d chains", coopt.MaxTAMWidth)
	}
}

func TestCheckSOCSourceClean(t *testing.T) {
	src := "soc x\ntmono 100\nmodule T i 1 o 1 s 2 t 3 children A\nmodule A i 2 o 2 s 806 t 100 sc 403,403\ntop T\n"
	r := CheckSOCSource("clean", src)
	if r.HasErrors() || r.Count(Warning) > 0 {
		t.Fatalf("clean profile produced findings: %v", r.Diags)
	}
}

// TestCheckSOCAgreesWithParser: anything the strict parser accepts must be
// free of error-severity structural findings (SOC001–SOC007) — the linter
// may know more (bookkeeping rules) but must never contradict the parser.
func TestCheckSOCAgreesWithParser(t *testing.T) {
	src := itc02.SOCString(itc02.P34392())
	if _, err := itc02.ParseSOCString(src); err != nil {
		t.Fatal(err)
	}
	r := CheckSOCSource("p34392", src)
	for _, d := range r.Diags {
		if d.Sev == Error && d.Rule < "SOC008" {
			t.Errorf("parser-clean profile tripped structural %s: %s", d.Rule, d.Msg)
		}
	}
}

func TestCheckSOCProfile(t *testing.T) {
	s := &core.SOC{
		Name:  "prog",
		TMono: 10,
		Top: &core.Module{
			Name:   "top",
			Params: core.Params{Inputs: 1, Outputs: 1, Patterns: 2},
			Children: []*core.Module{{
				Name:       "bad",
				Params:     core.Params{ScanCells: 9, Patterns: 20},
				ScanChains: []int{4, 4},
			}},
		},
	}
	r := CheckSOC(s)
	if !hasRule(r, "SOC008") || !hasRule(r, "SOC010") {
		t.Errorf("profile check missed rules: %v", rulesOf(r))
	}
}

// TestCommittedProfilesLintClean: every published ITC'02 profile baked into
// the repo must pass the linter without errors — the property the CI leg
// and socx -lint preflight rely on.
func TestCommittedProfilesLintClean(t *testing.T) {
	socs, err := itc02.AllSOCs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append([]*core.SOC{itc02.P34392()}, socs...) {
		if r := CheckSOC(s); r.HasErrors() {
			var sb strings.Builder
			r.WriteText(&sb)
			t.Errorf("committed profile %s has lint errors:\n%s", s.Name, sb.String())
		}
	}
}

// TestGeneratedStandinsLintClean: every bench89 stand-in circuit the repo
// generates must be structurally sound — no error-severity findings and
// no dead logic. Generation is randomized by profile seed, so warnings
// about unobservable flops (a generator artifact, not a defect) are
// tolerated; anything error-level would mean the generator emits netlists
// the rest of the pipeline cannot trust.
func TestGeneratedStandinsLintClean(t *testing.T) {
	for _, p := range bench89.StandardProfiles() {
		if testing.Short() && p.Gates > 2000 {
			continue
		}
		c := bench89.MustGenerate(p)
		r := CheckCircuit(c, DefaultOptions())
		if r.HasErrors() {
			var sb strings.Builder
			r.WriteText(&sb)
			t.Errorf("generated %s has lint errors:\n%s", p.Name, sb.String())
		}
		if hasRule(r, "NL004") {
			t.Errorf("generated %s contains dead logic", p.Name)
		}
	}
}

func TestCheckBenchSATRules(t *testing.T) {
	// o reconverges to a, so x = XOR(o, a) is provably constant 0 and its
	// stuck-at-0 fault (among others in the redundant cone) is provably
	// untestable. Neither fact is visible to the structural rules.
	src := `INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
nb = NOT(b)
t1 = AND(a, b)
t2 = AND(a, nb)
o = OR(t1, t2)
x = XOR(o, a)
z = OR(x, c)
`
	r := CheckBench("red", src, Options{SAT: true})
	if !hasRule(r, "NL013") {
		t.Errorf("constant net x not flagged NL013: %v", rulesOf(r))
	}
	if !hasRule(r, "NL014") {
		t.Errorf("untestable faults not flagged NL014: %v", rulesOf(r))
	}
	for _, d := range r.Diags {
		if (d.Rule == "NL013" || d.Rule == "NL014") && d.Sev != Warning {
			t.Errorf("%s severity = %v, want warning", d.Rule, d.Sev)
		}
	}
	// Without SAT the formal rules stay off.
	if r := CheckBench("red", src, Options{}); hasRule(r, "NL013") || hasRule(r, "NL014") {
		t.Errorf("SAT rules ran without opt-in: %v", rulesOf(r))
	}
	// A fully testable netlist produces no SAT findings.
	clean := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	if r := CheckBench("clean", clean, Options{SAT: true}); hasRule(r, "NL013") || hasRule(r, "NL014") {
		t.Errorf("SAT findings on a clean netlist: %v", rulesOf(r))
	}
}

// TestReverseNamedChain lints a 50,000-gate NOT chain whose names sort
// against signal flow (n000000 = NOT(n000001), ...) against a timer: a
// cycle check that re-sorts pending names per resolved gate is quadratic
// on it, and must fail the test instead of hanging it.
func TestReverseNamedChain(t *testing.T) {
	const gates = 50000
	var b strings.Builder
	b.WriteString("INPUT(a)\nOUTPUT(n000000)\n")
	for i := 0; i < gates-1; i++ {
		fmt.Fprintf(&b, "n%06d = NOT(n%06d)\n", i, i+1)
	}
	fmt.Fprintf(&b, "n%06d = NOT(a)\n", gates-1)
	src := b.String()
	done := make(chan *Report, 1)
	go func() { done <- CheckBench("chain.bench", src, DefaultOptions()) }()
	select {
	case r := <-done:
		if len(r.Diags) != 0 {
			t.Fatalf("clean chain drew findings: %v", r.Diags)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CheckBench took over 5 s on a 50,000-gate chain")
	}
}
