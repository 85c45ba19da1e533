package lint

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/itc02"
	"repro/internal/obs"
	"repro/internal/soc"
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

// socRuleCases holds one .soc source per structural and profile rule;
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
	{"overflow", "soc big\nmodule Top t 1 children A\nmodule A s 2000000000 t 3000000000\ntop Top\n", "SOC014"},
}

func TestCheckSOCSourceRules(t *testing.T) {
	for _, tc := range socRuleCases {
		r := CheckSOCSource(tc.name, tc.src)
		if !hasRule(r, tc.want) {
			t.Errorf("%s: rule %s did not fire; got %v", tc.name, tc.want, rulesOf(r))
		}
	}
}

// TestWideChainCoreNoFinding checks a core with more pre-stitched scan
// chains than coopt.MaxTAMWidth (64) draws no finding: the wrapper
// concatenates chains, and coopt's TestWideChainCoreSchedules schedules
// the same core at every width.
func TestWideChainCoreNoFinding(t *testing.T) {
	sc := strings.TrimSuffix(strings.Repeat("1,", 65), ",")
	r := CheckSOCSource("wide", fmt.Sprintf("soc x\ntmono 10\nmodule A i 1 o 1 s 65 t 1 sc %s\ntop A\n", sc))
	if len(r.Diags) != 0 {
		t.Errorf("65-chain core drew %v", r.Diags)
	}
}

// TestSOCFindingsPositioned pins the profile findings core.SOC.Check
// makes, each at the line of the module it names: the overflow probe's
// Eq. 4 term, Eq. 2 at the module holding T_max and a chain-sum mismatch,
// all with Validate's text.
func TestSOCFindingsPositioned(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"soc big\nmodule Top t 1 children A\nmodule A s 2000000000 t 3000000000\ntop Top\n",
			"f:3: error: SOC014: module A: Eq. 4 TDV_modular overflows int64"},
		{"soc x\ntmono 5\nmodule Top t 1 children A,B\nmodule A s 1 t 30\nmodule B s 1 t 30\ntop Top\n",
			"f:4: error: SOC010: T_mono=5 is below T_max=30, violating Eq. 2"},
		{"soc x\ntmono 30\nmodule A s 20 sc 5,5 t 30\ntop A\n",
			"f:3: error: SOC008: module A declares scan chains summing to 10 but s=20"},
	} {
		r := CheckSOCSource("f", tc.src)
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if r.Count(Error) != 1 || r.Count(Warning) != 0 || !strings.Contains(b.String(), tc.want+"\n") {
			t.Errorf("%q:\n%swant the one finding %s", tc.src, b.String(), tc.want)
		}
	}
}

// TestMalformedValueNoCascade checks a module line with a malformed value
// draws the SOC001 alone: the value the reader could not parse reads as
// 0, so a per-module finding on that line would be a guess.
func TestMalformedValueNoCascade(t *testing.T) {
	for _, src := range []string{
		"soc x\ntmono 3\nmodule A s -5 t 3\ntop A\n",
		"soc x\ntmono 3\nmodule A s 4 t 3 sc 2,x\ntop A\n",
		"soc x\ntmono 1\nmodule A t nope s 8\ntop A\n",
	} {
		if got := rulesOf(CheckSOCSource("f", src)); len(got) != 1 || got[0] != "SOC001" {
			t.Errorf("%q: got %v, want [SOC001]", src, got)
		}
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

// TestCheckSOCProfile checks a profile with two profile errors draws both,
// each at its module's line: core.SOC.Check makes no early return.
func TestCheckSOCProfile(t *testing.T) {
	r := CheckSOCSource("prog", "soc prog\ntmono 10\nmodule top i 1 o 1 t 2 children bad\nmodule bad s 9 t 20 sc 4,4\ntop top\n")
	if got := rulesOf(r); strings.Join(got, " ") != "SOC008 SOC010" || r.Diags[0].Pos.Line != 4 || r.Diags[1].Pos.Line != 4 {
		t.Errorf("profile check: %v", r.Diags)
	}
}

// TestCommittedProfilesLintClean: every profile baked into the repo — the
// ITC'02 tables and the paper's SOC1 and SOC2 — must lint without errors
// in its .soc text, as socx, itc02x and tdvcalc -builtin run on them.
func TestCommittedProfilesLintClean(t *testing.T) {
	socs, err := itc02.AllSOCs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(socs, itc02.P34392(), soc.SOC1Profile(), soc.SOC2Profile()) {
		if r := CheckSOCSource(s.Name, itc02.SOCString(s)); r.HasErrors() {
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
		r := checkCircuit(c.Name, c, make([]int, c.NumGates()), DefaultOptions())
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
