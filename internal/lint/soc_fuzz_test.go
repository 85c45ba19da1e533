package lint

import (
	"slices"
	"testing"

	"repro/internal/itc02"
)

// FuzzCheckSOCSource holds the linter to the parser it shares a reader
// with: ParseSOC fails exactly when CheckSOCSource reports a structural
// error (SOC001–SOC007), and for every profile that parses, the source
// and the built profile draw the same (rule, subject) findings from the
// per-module rules (SOC008–SOC013).
func FuzzCheckSOCSource(f *testing.F) {
	for _, tc := range socRuleCases {
		f.Add(tc.src)
	}
	// The FuzzParseSOC seeds; the first is the p34392 profile that
	// TestCheckSOCAgreesWithParser lints.
	f.Add(itc02.SOCString(itc02.P34392()))
	f.Add("soc x\nmodule A i 1 o 2 b 0 s 3 t 4\ntop A\n")
	f.Add("soc sc\nmodule A i 1 o 2 b 0 s 806 t 4 sc 403,403\ntop A\n")
	f.Add("soc y\ntmono 10\nmodule T children A testeraccess\nmodule A t 5 s 9\ntop T\n")
	f.Add("# nothing\n")
	f.Add("soc z\nmodule A t 1 children A\ntop A\n")
	f.Add("soc k\nmodule top t 1\ntop top\n")
	f.Add("soc k2\n  module children i 1 t 2 children module  # comment\nmodule module t 3\ntop children\n")
	f.Add("# leading comment\n\r\nsoc w\r\nmodule A t 4 testeraccess\r\ntop A\r\n")
	f.Fuzz(func(t *testing.T, src string) {
		r := CheckSOCSource("f.soc", src)
		structural := false
		for _, d := range r.Diags {
			structural = structural || d.Rule <= "SOC007"
		}
		s, err := itc02.ParseSOCString(src)
		if (err != nil) != structural {
			t.Fatalf("parser error %v, but structural lint errors %v: %v", err, structural, rulesOf(r))
		}
		if err != nil {
			return
		}
		got, want := moduleFindings(r), moduleFindings(CheckSOC(s))
		if !slices.Equal(got, want) {
			t.Fatalf("source findings %v, profile findings %v", got, want)
		}
	})
}

// moduleFindings returns the sorted "rule subject" pairs of the per-module
// rules (SOC008–SOC013) in r.
func moduleFindings(r *Report) []string {
	var out []string
	for _, d := range r.Diags {
		if d.Rule >= "SOC008" {
			out = append(out, d.Rule+" "+d.Subject)
		}
	}
	slices.Sort(out)
	return out
}
