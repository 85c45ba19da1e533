package itc02

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRoundTripP34392(t *testing.T) {
	orig := P34392()
	text := SOCString(orig)
	re, err := ParseSOCString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if re.Name != orig.Name || re.TMono != orig.TMono {
		t.Error("header lost in round trip")
	}
	if re.TDVModular() != orig.TDVModular() {
		t.Errorf("modular TDV changed: %d vs %d", re.TDVModular(), orig.TDVModular())
	}
	if re.TDVMonoOpt() != orig.TDVMonoOpt() {
		t.Errorf("opt TDV changed: %d vs %d", re.TDVMonoOpt(), orig.TDVMonoOpt())
	}
	if len(re.Modules()) != len(orig.Modules()) {
		t.Errorf("module count changed: %d vs %d", len(re.Modules()), len(orig.Modules()))
	}
}

func TestRoundTripAllSynthesized(t *testing.T) {
	all, err := AllSOCs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		re, err := ParseSOCString(SOCString(s))
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if re.TDVModular() != s.TDVModular() || re.Penalty() != s.Penalty() {
			t.Errorf("%s: TDV changed in round trip", s.Name)
		}
	}
}

func TestParseTesterAccessAndComments(t *testing.T) {
	src := `
# a comment
soc mini
tmono 42   # trailing comment
module Top i 5 o 3 b 0 s 0 t 2 children A,B testeraccess
module A i 4 o 4 b 1 s 10 t 100
module B i 2 o 2 b 0 s 5 t 50
top Top
`
	s, err := ParseSOCString(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mini" || s.TMono != 42 {
		t.Errorf("header: %s/%d", s.Name, s.TMono)
	}
	if !s.Top.PortsTesterAccessible {
		t.Error("testeraccess flag lost")
	}
	if len(s.Top.Children) != 2 {
		t.Errorf("children = %d", len(s.Top.Children))
	}
	if s.Top.Children[0].Name != "A" || s.Top.Children[0].Bidirs != 1 {
		t.Error("child A params wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no top", "soc x\nmodule A i 1 o 1 b 0 s 0 t 1"},
		{"unknown top", "soc x\nmodule A i 1 o 1 b 0 s 0 t 1\ntop Z"},
		{"unknown directive", "soc x\nfrobnicate"},
		{"bad tmono", "soc x\ntmono -3\nmodule A t 1\ntop A"},
		{"tmono junk", "soc x\ntmono many\nmodule A t 1\ntop A"},
		{"duplicate module", "soc x\nmodule A t 1\nmodule A t 2\ntop A"},
		{"unknown child", "soc x\nmodule A t 1 children B\ntop A"},
		{"double embed", "soc x\nmodule A t 1 children C\nmodule B t 1 children C\nmodule C t 1\ntop A"},
		{"orphan", "soc x\nmodule A t 1\nmodule B t 1\ntop A"},
		{"top embedded", "soc x\nmodule A t 1 children B\nmodule B t 1\ntop B"},
		{"missing value", "soc x\nmodule A i\ntop A"},
		{"unknown key", "soc x\nmodule A q 4\ntop A"},
		{"negative value", "soc x\nmodule A i -2\ntop A"},
		{"module no name", "soc x\nmodule"},
		{"bad soc line", "soc"},
		{"no soc line", "module A\ntop A"},
		{"bad top line", "soc x\nmodule A t 1\ntop"},
		{"self cycle", "soc x\nmodule A t 1 children A\ntop A"},
	}
	for _, tc := range cases {
		if _, err := ParseSOCString(tc.src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	s := P34392()
	if SOCString(s) != SOCString(s) {
		t.Error("SOCString not deterministic")
	}
	if !strings.Contains(SOCString(s), "module Core10 i 29") {
		t.Error("core 10 correction missing from output")
	}
}

func TestGoldenP34392File(t *testing.T) {
	f, err := os.Open("testdata/p34392.soc")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := ParseSOC(f)
	if err != nil {
		t.Fatal(err)
	}
	want := P34392()
	if s.TDVModular() != want.TDVModular() {
		t.Errorf("golden modular TDV %d != embedded %d", s.TDVModular(), want.TDVModular())
	}
	if s.TDVMonoOpt() != want.TDVMonoOpt() {
		t.Errorf("golden opt TDV %d != embedded %d", s.TDVMonoOpt(), want.TDVMonoOpt())
	}
	if SOCString(s) != SOCString(want) {
		t.Error("golden file no longer matches the embedded profile; regenerate with 'go run ./cmd/itc02x -emit p34392'")
	}
}

// TestScanChainsRoundTrip covers the sc key: per-chain lengths survive the
// write/parse cycle in order, and malformed lengths are rejected.
func TestScanChainsRoundTrip(t *testing.T) {
	src := "soc chains\nmodule T i 1 o 1 b 0 s 0 t 1 children A\nmodule A i 2 o 3 b 0 s 806 t 210 sc 403,403\ntop T\n"
	s, err := ParseSOCString(src)
	if err != nil {
		t.Fatal(err)
	}
	var a *core.Module
	for _, m := range s.Modules() {
		if m.Name == "A" {
			a = m
		}
	}
	if a == nil || len(a.ScanChains) != 2 || a.ScanChains[0] != 403 || a.ScanChains[1] != 403 {
		t.Fatalf("scan chains lost: %+v", a)
	}
	if a.ScanChainSum() != a.ScanCells {
		t.Errorf("chain sum %d != scan cells %d", a.ScanChainSum(), a.ScanCells)
	}
	re, err := ParseSOCString(SOCString(s))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, SOCString(s))
	}
	for _, m := range re.Modules() {
		if m.Name == "A" && len(m.ScanChains) != 2 {
			t.Errorf("round trip dropped scan chains: %+v", m.ScanChains)
		}
	}
	for _, bad := range []string{
		"soc x\nmodule A s 1 t 1 sc 1,x\ntop A\n",
		"soc x\nmodule A s 1 t 1 sc -1\ntop A\n",
		"soc x\nmodule A s 1 t 1 sc\ntop A\n",
	} {
		if _, err := ParseSOCString(bad); err == nil {
			t.Errorf("bad sc accepted: %q", bad)
		}
	}
}

// TestParseSOCErrorsDeterministic: hierarchy problems are found in module
// definition order, so a two-parent profile always names its parents the
// same way (socd returns this text as a 400 body).
func TestParseSOCErrorsDeterministic(t *testing.T) {
	src := "soc x\nmodule A t 1 children C\nmodule B t 1 children C\nmodule C t 1\nmodule R t 1 children A,B\ntop R\n"
	const want = `soc line 3: module "C" embedded by both "A" and "B"`
	for i := 0; i < 100; i++ {
		_, err := ParseSOCString(src)
		if err == nil || err.Error() != want {
			t.Fatalf("parse %d: got %v, want %s", i, err, want)
		}
	}
}
