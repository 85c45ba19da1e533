package itc02

import (
	"math"
	"testing"
)

// FuzzParseSOC exercises the SOC description parser: no panics; successful
// parses round trip through the writer with identical TDV results and
// satisfy the exact Equation 6 identity. testdata/fuzz/FuzzParseSOC holds
// inputs it once failed on (a profile with no 'soc' line used to parse
// and then write text that did not).
func FuzzParseSOC(f *testing.F) {
	f.Add("soc x\nmodule A i 1 o 2 b 0 s 3 t 4\ntop A\n")
	f.Add("soc sc\nmodule A i 1 o 2 b 0 s 806 t 4 sc 403,403\ntop A\n")
	f.Add(SOCString(P34392()))
	f.Add("soc y\ntmono 10\nmodule T children A testeraccess\nmodule A t 5 s 9\ntop T\n")
	f.Add("# nothing\n")
	f.Add("soc z\nmodule A t 1 children A\ntop A\n")
	// Directive-named modules and comment/whitespace edges: a module may
	// legally be called top/module/children; the parser keys on position,
	// and the writer must emit text that reparses to the same SOC.
	f.Add("soc k\nmodule top t 1\ntop top\n")
	f.Add("soc k2\n  module children i 1 t 2 children module  # comment\nmodule module t 3\ntop children\n")
	f.Add("# leading comment\n\r\nsoc w\r\nmodule A t 4 testeraccess\r\ntop A\r\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSOCString(src)
		if err != nil {
			return
		}
		text := SOCString(s)
		re, err := ParseSOCString(text)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, text)
		}
		if re.TDVModular() != s.TDVModular() || re.TDVMonoOpt() != s.TDVMonoOpt() {
			t.Fatal("round trip changed TDV")
		}
		if re.Penalty() != s.Penalty() {
			t.Fatal("round trip changed penalty")
		}
		if len(re.Modules()) != len(s.Modules()) {
			t.Fatal("round trip changed module count")
		}
		// Eq. 6 is algebraic, so it holds for every accepted profile at
		// every T_mono ≥ max T_i (Benefit panics below that by design).
		// int64 arithmetic wraps in a ring, so overflowing inputs agree too.
		tmax := s.MaxPatterns()
		tms := []int{tmax, max(s.TMono, tmax)}
		if tmax <= (math.MaxInt-1)/2 {
			tms = append(tms, 2*tmax+1)
		}
		for _, tm := range tms {
			if err := s.VerifyIdentity(tm); err != nil {
				t.Fatalf("T_mono=%d: %v\n%s", tm, err, text)
			}
		}
	})
}
