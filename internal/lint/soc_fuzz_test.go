package lint

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/itc02"
)

// FuzzCheckSOCSource holds the linter to the parser and the profile
// checker it shares: ParseSOC fails exactly when CheckSOCSource reports a
// structural error (SOC001–SOC007), ParseSOC followed by
// core.SOC.Validate fails exactly when it reports an error of any rule,
// and the refusal Validate returns is one of its findings, word for word.
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
	// The overflow probe and one profile per magnitude branch of
	// core's TestValidateRefusesOverflow.
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "overflow", "*.soc"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no overflow seeds: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		r := CheckSOCSource("f.soc", src)
		structural := false
		for _, d := range r.Diags {
			structural = structural || d.Sev == Error && d.Rule <= "SOC007"
		}
		s, err := itc02.ParseSOCString(src)
		if (err != nil) != structural {
			t.Fatalf("parser error %v, but structural lint errors %v: %v", err, structural, rulesOf(r))
		}
		if err != nil {
			return
		}
		err = s.Validate()
		if (err != nil) != r.HasErrors() {
			t.Fatalf("Validate: %v, but lint errors %v: %v", err, r.HasErrors(), rulesOf(r))
		}
		if err != nil && !slices.ContainsFunc(r.Diags, func(d Diagnostic) bool { return d.Msg == err.Error() }) {
			t.Fatalf("refusal %q is no lint finding: %v", err, r.Diags)
		}
	})
}
