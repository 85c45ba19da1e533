package coopt

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/itc02"
	"repro/internal/tam"
)

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExpectedTime pins expectedTime to the two-test reference vector of
// the exchange argument: expected times 20 and 30 depending on order.
func TestExpectedTime(t *testing.T) {
	// t1=10 p1=0.5 then t2=20 p2=0: E = 10 + 0.5·20 = 20.
	two := []abortTest{{name: "a", time: 10, p: 0.5}, {name: "b", time: 20, p: 0}}
	if got := expectedTime(two); got != 20 {
		t.Errorf("E = %v, want 20", got)
	}
	// Reversed: E = 20 + 1.0·10 = 30.
	if got := expectedTime([]abortTest{two[1], two[0]}); got != 30 {
		t.Errorf("reversed E = %v, want 30", got)
	}
	if expectedTime(nil) != 0 {
		t.Error("empty order must be 0")
	}
}

// TestOptimalOrderRatios pins optimalOrder to the three-test reference
// vector: t/p ratios 100000, 20, 1000 order as short-flaky, medium,
// long-reliable.
func TestOptimalOrderRatios(t *testing.T) {
	tests := []abortTest{
		{name: "long-reliable", time: 1000, p: 0.01},
		{name: "short-flaky", time: 10, p: 0.5},
		{name: "medium", time: 100, p: 0.1},
	}
	opt := optimalOrder(tests)
	want := []string{"short-flaky", "medium", "long-reliable"}
	for i, w := range want {
		if opt[i].name != w {
			t.Fatalf("position %d = %s, want %s", i, opt[i].name, w)
		}
	}
	if expectedTime(opt) >= expectedTime(tests) {
		t.Errorf("optimal %v not better than baseline %v", expectedTime(opt), expectedTime(tests))
	}
	if tests[0].name != "long-reliable" {
		t.Error("optimalOrder must not reorder its argument")
	}
}

// TestAbortReportPinnedToSchedVectors checks that the two-test reference
// vector surfaces in a built schedule's abort report. Core a has the most
// patterns (p = 0.5) and runs 10 cycles; core b has none (p = 0) and runs
// 20 cycles. Packed b-then-a, the report must give E = 30 for the packed
// order, E = 20 for the optimal a-then-b order, and an improvement of 1/3.
func TestAbortReportPinnedToSchedVectors(t *testing.T) {
	cores := []Core{
		{Name: "a", Test: tam.CoreTest{Patterns: 8}},
		{Name: "b", Test: tam.CoreTest{Patterns: 0}},
	}
	pk := &Packing{
		TAMWidth:  1,
		TotalTime: 30,
		Placements: []Placement{
			{Core: "b", Width: 1, Lines: []int{0}, Start: 0, Finish: 20},
			{Core: "a", Width: 1, Lines: []int{0}, Start: 20, Finish: 30},
		},
	}
	ab := buildSchedule("vec", cores, pk, Options{TAMWidth: 1}).Abort
	if ab.PackedExpected != 30 || ab.OptimalExpected != 20 {
		t.Fatalf("expected times packed %v optimal %v, want 30 and 20", ab.PackedExpected, ab.OptimalExpected)
	}
	if fmt.Sprint(ab.PackedOrder) != "[b a]" || fmt.Sprint(ab.OptimalOrder) != "[a b]" {
		t.Fatalf("orders packed %v optimal %v, want [b a] and [a b]", ab.PackedOrder, ab.OptimalOrder)
	}
	if ab.Improvement != round4(1-20.0/30) {
		t.Fatalf("improvement %v, want %v", ab.Improvement, round4(1-20.0/30))
	}
}

func TestOptimalOrderZeroProbabilitySortsLast(t *testing.T) {
	opt := optimalOrder([]abortTest{
		{name: "never-fails", time: 1, p: 0},
		{name: "fails", time: 1000, p: 0.9},
	})
	if opt[len(opt)-1].name != "never-fails" {
		t.Error("zero-probability test must sort last")
	}
}

// TestOptimalOrderIsGloballyOptimal: no permutation beats the t/p order,
// checked by full enumeration of up to five tests (120 permutations).
func TestOptimalOrderIsGloballyOptimal(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tests := make([]abortTest, 2+r.Intn(4))
		for i := range tests {
			tests[i] = abortTest{
				name: string(rune('a' + i)),
				time: int64(1 + r.Intn(1000)),
				p:    float64(r.Intn(100)) / 100,
			}
		}
		best := expectedTime(optimalOrder(tests))
		ok := true
		permute(tests, func(p []abortTest) {
			if expectedTime(p) < best-1e-9 {
				ok = false
			}
		})
		return ok
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// permute enumerates all permutations of ts (Heap's algorithm).
func permute(ts []abortTest, visit func([]abortTest)) {
	p := append([]abortTest(nil), ts...)
	var rec func(k int)
	rec = func(k int) {
		if k <= 1 {
			visit(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(len(p))
}

// TestScheduleAbortOrdering checks the report on a real SOC: the optimal
// order's expected time never exceeds the packed order's, the orders are
// permutations of the same cores, and the improvement is a fraction.
func TestScheduleAbortOrdering(t *testing.T) {
	s, err := itc02.SOCByName("d695")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Optimize(s, Options{TAMWidth: 32})
	if err != nil {
		t.Fatal(err)
	}
	ab := sch.Abort
	if len(ab.PackedOrder) != len(sch.Placements) || len(ab.OptimalOrder) != len(sch.Placements) {
		t.Fatalf("order lengths %d/%d != %d placements",
			len(ab.PackedOrder), len(ab.OptimalOrder), len(sch.Placements))
	}
	if ab.OptimalExpected > ab.PackedExpected {
		t.Fatalf("optimal expected %v worse than packed %v", ab.OptimalExpected, ab.PackedExpected)
	}
	if ab.Improvement < 0 || ab.Improvement > 1 {
		t.Fatalf("improvement %v outside [0,1]", ab.Improvement)
	}
	seen := map[string]bool{}
	for _, n := range ab.OptimalOrder {
		seen[n] = true
	}
	for _, n := range ab.PackedOrder {
		if !seen[n] {
			t.Fatalf("core %s in packed order missing from optimal order", n)
		}
	}
}

func TestFailProbDomain(t *testing.T) {
	if p := failProb(100, 100); p != 0.5 {
		t.Fatalf("max-pattern core must get p=0.5, got %v", p)
	}
	if p := failProb(0, 100); p != 0 {
		t.Fatalf("zero-pattern core must get p=0, got %v", p)
	}
	if p := failProb(5, 0); p != 0 {
		t.Fatalf("degenerate maxPatterns must yield 0, got %v", p)
	}
}

func TestOptionsHashSensitivity(t *testing.T) {
	base := Options{TAMWidth: 32}
	if base.OptionsHash() == (Options{TAMWidth: 33}).OptionsHash() {
		t.Fatal("width must change the hash")
	}
	if base.OptionsHash() == (Options{TAMWidth: 32, PowerBudget: 1}).OptionsHash() {
		t.Fatal("budget must change the hash")
	}
	if base.OptionsHash() == (Options{TAMWidth: 32, Precedence: [][2]string{{"a", "b"}}}).OptionsHash() {
		t.Fatal("precedence must change the hash")
	}
	if base.OptionsHash() != (Options{TAMWidth: 32}).OptionsHash() {
		t.Fatal("equal options must hash equally")
	}
}

func TestBuildCoresRejectsChainMismatch(t *testing.T) {
	s := chainedSOC()
	s.Top.Children[0].ScanChains[0]++ // corrupt the declared chains
	if _, err := BuildCores(s, 16); err == nil || !strings.Contains(err.Error(), "declares scan chains summing to") {
		t.Fatalf("chain-sum mismatch must be rejected with core.SOC.Validate's text, got %v", err)
	}
}

// TestWideChainCoreSchedules checks a core declaring more pre-stitched
// scan chains than MaxTAMWidth schedules at every width: the wrapper
// concatenates chains onto its lines, and the test time falls as W grows.
// lint's TestWideChainCoreNoFinding lints the same core clean.
func TestWideChainCoreSchedules(t *testing.T) {
	sc := strings.TrimSuffix(strings.Repeat("1,", MaxTAMWidth+1), ",")
	s, err := itc02.ParseSOCString("soc x\ntmono 10\nmodule A i 1 o 1 s 65 t 1 sc " + sc + "\ntop A\n")
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range map[int]int64{1: 133, 8: 19, MaxTAMWidth: 5} {
		sch, err := Optimize(s, Options{TAMWidth: w})
		if err != nil || sch.TotalTime != want {
			t.Errorf("W=%d: Optimize = %+v, %v; want total time %d", w, sch, err, want)
		}
	}
}

// TestOverflowRefused checks Optimize and Sweep refuse a profile whose
// Eq. 4 volume leaves int64 with core.SOC.Validate's message, instead of
// returning a wrapped, negative TDVBits, and a profile Validate accepts
// whose schedule would wrap: a tester-accessible top with 5·10¹⁸ inputs
// shifts them over 8 lines in 6.25·10¹⁷ cycles, so 2·W·T leaves int64.
func TestOverflowRefused(t *testing.T) {
	for src, want := range map[string]string{
		"soc big\nmodule Top t 1 children A\nmodule A s 2000000000 t 3000000000\ntop Top\n":                   "module A: Eq. 4 TDV_modular overflows int64",
		"soc wide\nmodule Top i 5000000000000000000 t 1 testeraccess children A\nmodule A i 1 t 1\ntop Top\n": "128 times the summed test times overflows int64",
	} {
		s, err := itc02.ParseSOCString(src)
		if err != nil {
			t.Fatal(err)
		}
		if sc, err := Optimize(s, Options{TAMWidth: 8}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Optimize = %+v, %v; want an error with %q", sc, err, want)
		}
		if pts, err := Sweep(s, []int{8, 16}, 1, 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Sweep = %+v, %v; want an error with %q", pts, err, want)
		}
	}
}

// TestScheduleArtifactsPinned pins the SHA-256 of served schedule bytes.
// The unbudgeted d695@32 and g1023@24 digests are the ones the socbench
// serving catalog (cmd/socbench/testdata/serve_catalog.json) checks on
// every /v1/schedule response. The budgeted one, with the precedence
// pairs of srv's TestWorkKeysPinned, is the v1 artifact
// (0989918184069f57…) minus its 21-byte `,"session_time":17484`.
func TestScheduleArtifactsPinned(t *testing.T) {
	prec := [][2]string{{"d695-core5", "d695-core1"}, {"d695-core2", "d695-core9"}}
	for _, tc := range []struct {
		soc  string
		opts Options
		want string
	}{
		{"d695", Options{TAMWidth: 32},
			"a6cb2adb736afaf486bc0705f12b841080f7c4cb94d91e2e6b00bdd3593f994c"},
		{"g1023", Options{TAMWidth: 24},
			"e80d030daab41f4d720f2746957177712f5bb56260a68ec01a1241ccf37c722c"},
		{"d695", Options{TAMWidth: 32, PowerBudget: 5000, Precedence: prec},
			"ff35a661bc65f4ea078a79b670a16feead39fe934ee4d12d7462b42595a3f6f6"},
	} {
		s, err := itc02.SOCByName(tc.soc)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := Optimize(s, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sch.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
			t.Errorf("%s@%d budget %d: artifact sha256 %s, want %s\n%s",
				tc.soc, tc.opts.TAMWidth, tc.opts.PowerBudget, got, tc.want, b)
		}
	}
}

// TestOptionsValidate holds the one width and budget check that
// Optimize, Sweep, BuildCores, Pack, socsched and the serving layer share.
func TestOptionsValidate(t *testing.T) {
	s, _ := itc02.SOCByName("d695")
	for want, o := range map[string]Options{
		"coopt: TAM width 0 outside 1..64":         {},
		"coopt: TAM width 65 outside 1..64":        {TAMWidth: MaxTAMWidth + 1},
		"coopt: power budget must be >= 0, got -1": {TAMWidth: 8, PowerBudget: -1},
	} {
		_, serr := Sweep(s, []int{8, o.TAMWidth}, 1, o.PowerBudget)
		if _, err := Optimize(s, o); err == nil || err.Error() != want || serr == nil || !strings.HasSuffix(serr.Error(), want) {
			t.Errorf("%+v: Optimize %v, Sweep %v, want %q", o, err, serr, want)
		}
	}
}
