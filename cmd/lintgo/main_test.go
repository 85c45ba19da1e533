package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// check runs checkSource over one synthetic file and returns the rule IDs
// found, in report order.
func check(t *testing.T, path, src string) []string {
	t.Helper()
	fnd, err := checkSource(token.NewFileSet(), path, []byte(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	ids := make([]string, len(fnd))
	for i, f := range fnd {
		ids[i] = f.rule
	}
	return ids
}

func TestGO001GlobalRand(t *testing.T) {
	src := `package x
import "math/rand"
func f() int { return rand.Intn(10) }
`
	if got := check(t, "a.go", src); len(got) != 1 || got[0] != "GO001" {
		t.Errorf("findings = %v, want [GO001]", got)
	}
	// The sanctioned form — explicit source — is clean.
	clean := `package x
import "math/rand"
func f() int { return rand.New(rand.NewSource(1)).Intn(10) }
`
	if got := check(t, "a.go", clean); len(got) != 0 {
		t.Errorf("seeded source flagged: %v", got)
	}
}

func TestGO001AliasAndV2(t *testing.T) {
	src := `package x
import mrand "math/rand/v2"
func f() int { return mrand.N(10) }
`
	if got := check(t, "a.go", src); len(got) != 1 || got[0] != "GO001" {
		t.Errorf("aliased v2 findings = %v, want [GO001]", got)
	}
	dot := `package x
import . "math/rand"
`
	if got := check(t, "a.go", dot); len(got) != 1 || got[0] != "GO001" {
		t.Errorf("dot import findings = %v, want [GO001]", got)
	}
}

func TestGO002WallClock(t *testing.T) {
	src := `package x
import "time"
var a = time.Now()
func f(t0 time.Time) float64 { return time.Since(t0).Seconds() }
`
	if got := check(t, "internal/atpg/a.go", src); len(got) != 2 {
		t.Errorf("findings = %v, want two GO002", got)
	}
	// The same source inside the timing-owning packages is exempt.
	for _, p := range []string{"internal/obs/a.go", "internal/runctl/sub/a.go"} {
		if got := check(t, p, src); len(got) != 0 {
			t.Errorf("%s: exempt package flagged: %v", p, got)
		}
	}
}

func TestGO002TickerFunctions(t *testing.T) {
	src := `package x
import "time"
func f() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	<-time.After(time.Second)
}
`
	if got := check(t, "internal/atpg/a.go", src); len(got) != 2 || got[0] != "GO002" || got[1] != "GO002" {
		t.Errorf("findings = %v, want [GO002 GO002]", got)
	}
	// The ticker scope is wider than the wall-clock scope: the serving
	// layer's SSE keep-alive lives in internal/srv legally.
	for _, p := range []string{"internal/srv/a.go", "internal/obs/a.go", "internal/runctl/a.go"} {
		if got := check(t, p, src); len(got) != 0 {
			t.Errorf("%s: exempt package flagged: %v", p, got)
		}
	}
	// But a wall-clock read in internal/srv is still a finding — the
	// wider scope covers only the ticker constructors.
	wall := `package x
import "time"
var a = time.Now()
`
	if got := check(t, "internal/srv/a.go", wall); len(got) != 1 || got[0] != "GO002" {
		t.Errorf("srv wall-clock findings = %v, want [GO002]", got)
	}
	// An allow directive names the base rule, not the scope suffix.
	allowed := `package x
import "time"
// lintgo:allow GO002 protocol pacing
var c = time.Tick(1)
`
	if got := check(t, "internal/atpg/a.go", allowed); len(got) != 0 {
		t.Errorf("GO002 directive did not cover ticker finding: %v", got)
	}
}

func TestGO002LocalVariableNotConfused(t *testing.T) {
	// A local identifier named "time" is not the package.
	src := `package x
type clock struct{}
func (clock) Now() int { return 0 }
func f() int {
	time := clock{}
	return time.Now()
}
`
	if got := check(t, "a.go", src); len(got) != 0 {
		t.Errorf("local shadow flagged: %v", got)
	}
}

func TestGO003BareGo(t *testing.T) {
	src := `package x
func f() { go func() {}() }
`
	if got := check(t, "internal/soc/a.go", src); len(got) != 1 || got[0] != "GO003" {
		t.Errorf("findings = %v, want [GO003]", got)
	}
	if got := check(t, "internal/par/a.go", src); len(got) != 0 {
		t.Errorf("internal/par flagged: %v", got)
	}
}

func TestGO004RawWrites(t *testing.T) {
	src := `package x
import "os"
func f() error {
	if err := os.WriteFile("out.json", nil, 0o644); err != nil {
		return err
	}
	_, err := os.Create("report.txt")
	return err
}
`
	if got := check(t, "cmd/tool/a.go", src); len(got) != 2 || got[0] != "GO004" || got[1] != "GO004" {
		t.Errorf("findings = %v, want [GO004 GO004]", got)
	}
	// The crash-safe write layer is the one place raw writes belong.
	if got := check(t, "internal/runctl/atomic.go", src); len(got) != 0 {
		t.Errorf("internal/runctl flagged: %v", got)
	}
	// Test files corrupt artifacts on purpose; the rule never fires there,
	// even when the walker was told to include tests.
	if got := check(t, "cmd/tool/a_test.go", src); len(got) != 0 {
		t.Errorf("test file flagged: %v", got)
	}
	// An aliased os import is still the os package.
	aliased := `package x
import stdos "os"
func f() error { return stdos.WriteFile("x", nil, 0o644) }
`
	if got := check(t, "cmd/tool/a.go", aliased); len(got) != 1 || got[0] != "GO004" {
		t.Errorf("aliased findings = %v, want [GO004]", got)
	}
	// Reads and opens are not writes; a local variable named os is not the
	// package.
	clean := `package x
import "os"
type fsys struct{}
func (fsys) Create(string) error { return nil }
func f() error {
	_, _ = os.ReadFile("x")
	_, _ = os.Open("x")
	os := fsys{}
	return os.Create("x")
}
`
	if got := check(t, "cmd/tool/a.go", clean); len(got) != 0 {
		t.Errorf("clean source flagged: %v", got)
	}
	// An allow directive suppresses, as for every other rule.
	allowed := `package x
import "os"
//lintgo:allow GO004 streaming sink
var f, _ = os.Create("trace.jsonl")
`
	if got := check(t, "cmd/tool/a.go", allowed); len(got) != 0 {
		t.Errorf("GO004 directive ignored: %v", got)
	}
}

func TestAllowDirective(t *testing.T) {
	above := `package x
import "time"
// lintgo:allow GO002 deadline contract
var a = time.Now()
`
	if got := check(t, "a.go", above); len(got) != 0 {
		t.Errorf("line-above directive ignored: %v", got)
	}
	inline := `package x
import "time"
var a = time.Now() // lintgo:allow GO002
`
	if got := check(t, "a.go", inline); len(got) != 0 {
		t.Errorf("same-line directive ignored: %v", got)
	}
	// A directive for a different rule must not suppress.
	wrong := `package x
import "time"
// lintgo:allow GO001
var a = time.Now()
`
	if got := check(t, "a.go", wrong); len(got) != 1 {
		t.Errorf("wrong-rule directive suppressed: %v", got)
	}
}

func TestGoFilesSkipsTests(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.go", "a_test.go", filepath.Join("testdata", "b.go")} {
		p := filepath.Join(dir, name)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := goFiles([]string{dir}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || filepath.Base(got[0]) != "a.go" {
		t.Errorf("default walk = %v, want just a.go", got)
	}
	got, err = goFiles([]string{dir}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("-tests walk = %v, want a.go and a_test.go", got)
	}
}

// lintgo runs the command in-process and returns its exit code and its
// stdout and stderr interleaved as a terminal shows them.
func lintgo(args ...string) (code int, out string) {
	var both bytes.Buffer
	code = run(args, &both, &both)
	return code, both.String()
}

// TestRepoIsLintClean is the property the CI leg enforces: the repository
// itself passes its own determinism lint.
func TestRepoIsLintClean(t *testing.T) {
	if code, out := lintgo("../.."); code != 0 {
		t.Fatalf("repo has determinism findings (exit %d):\n%s", code, out)
	}
}

// TestExecFindingsExitOne seeds a violation and checks the output line and
// exit code end to end.
func TestExecFindingsExitOne(t *testing.T) {
	dir := t.TempDir()
	src := "package x\n\nimport \"math/rand\"\n\nfunc f() int { return rand.Intn(3) }\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, s := lintgo(dir)
	if code != exitFindings {
		t.Fatalf("exit %d, want %d\n%s", code, exitFindings, s)
	}
	if !strings.Contains(s, "bad.go:5: GO001") || !strings.Contains(s, "1 finding(s)") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

func TestGO005OsExit(t *testing.T) {
	src := `package x
import "os"
func f() { os.Exit(1) }
`
	// A library package must not exit the process.
	if got := check(t, "internal/atpg/a.go", src); len(got) != 1 || got[0] != "GO005" {
		t.Errorf("findings = %v, want [GO005]", got)
	}
	// func main of a main package owns the exit, wherever the file lives.
	mainExit := `package main
import "os"
func main() { os.Exit(run()) }
func run() int { return 0 }
`
	for _, path := range []string{"cmd/atpgrun/main.go", "examples/x/main.go"} {
		if got := check(t, path, mainExit); len(got) != 0 {
			t.Errorf("%s: exit in func main flagged: %v", path, got)
		}
	}
	// Anywhere else in a command it is a finding: a run function that
	// exits cannot be called in-process, and neither can a method or a
	// non-main package's func main.
	for _, tc := range []struct{ path, src string }{
		{"cmd/atpgrun/main.go", "package main\nimport \"os\"\nfunc main() { run() }\nfunc run() { os.Exit(2) }\n"},
		{"cmd/atpgrun/main.go", "package main\nimport \"os\"\ntype t struct{}\nfunc (t) main() { os.Exit(2) }\n"},
		{"cmd/atpgrun/main.go", "package main\nimport \"os\"\nvar _ = func() int { os.Exit(2); return 0 }()\n"},
		{"internal/cli/cli.go", "package cli\nimport \"os\"\nfunc main() { os.Exit(1) }\n"},
	} {
		if got := check(t, tc.path, tc.src); len(got) != 1 || got[0] != "GO005" {
			t.Errorf("%s %q: findings = %v, want [GO005]", tc.path, tc.src, got)
		}
	}
	// "cmd" in a path exempts nothing: a library package whose name
	// merely contains it is still a library.
	if got := check(t, "internal/mycmd/a.go", src); len(got) != 1 || got[0] != "GO005" {
		t.Errorf("internal/mycmd findings = %v, want [GO005]", got)
	}
	// An aliased os import is still the os package.
	aliased := `package x
import stdos "os"
func f() { stdos.Exit(2) }
`
	if got := check(t, "internal/atpg/a.go", aliased); len(got) != 1 || got[0] != "GO005" {
		t.Errorf("aliased findings = %v, want [GO005]", got)
	}
	// An allow directive suppresses a justified hit.
	allowed := `package x
import "os"
//lintgo:allow GO005 re-exec shim must exit here
func f() { os.Exit(1) }
`
	if got := check(t, "internal/atpg/a.go", allowed); len(got) != 0 {
		t.Errorf("allow directive not honored: %v", got)
	}
}
