// lintgo is the repository's determinism lint: a stdlib-only go/ast
// checker for the three source-level rules the reproduction depends on.
// Results here must be bit-identical across runs and resumable after a
// crash, which is only true if randomness, wall-clock time and goroutine
// scheduling stay confined to the packages built to contain them:
//
//	GO001  global math/rand: package-level rand.Intn etc. draw from the
//	       shared process-wide source, so pattern generation would depend
//	       on whatever else touched it. Construct rand.New(rand.NewSource)
//	       with an explicit seed instead.
//	GO002  time.Now / time.Since outside internal/obs and internal/runctl:
//	       wall-clock reads anywhere else leak nondeterminism into results
//	       (timestamps in artifacts, time-dependent branches). Timing
//	       belongs to the observability and run-control layers. Timer and
//	       ticker constructors (time.NewTicker, time.Tick, time.After,
//	       time.NewTimer, time.AfterFunc) fall under the same rule with a
//	       slightly wider home: internal/srv is additionally allowed,
//	       because the serving layer's SSE keep-alive ticker paces a wire
//	       protocol, not a result.
//	GO003  bare go statement outside internal/par: ad-hoc goroutines
//	       reorder work nondeterministically; concurrency must go through
//	       the deterministic parallel-execution layer.
//	GO004  os.WriteFile / os.Create outside internal/runctl: a raw write
//	       torn by a crash leaves a half-written artifact that poisons
//	       later runs. Durable output goes through runctl.WriteFileAtomic
//	       (write-rename) or runctl.AppendFile (fsync'd append). The rule
//	       skips _test.go files even under -tests — tests corrupt files on
//	       purpose.
//	GO005  os.Exit outside func main of a main package: an exit buried
//	       in a library or a command's run function skips deferred
//	       cleanup (trace flushes, checkpoint saves, temp-file removal),
//	       turns a recoverable error into a silent truncation of the run,
//	       and kills any test that calls it in-process. Everything else
//	       returns an error or an exit code; main alone hands it to
//	       os.Exit.
//
// A finding is suppressed by a '//lintgo:allow GO00x [reason]' comment on
// the offending line or the line above it. Test files are skipped unless
// -tests is given. The tool is deliberately self-contained (go/ast +
// go/parser only, no repo imports) so it can vet every package without
// being confused by the packages it checks.
//
// Usage:
//
//	lintgo [-tests] [path...]
//
// Paths default to ".". Directories are walked recursively, skipping
// testdata and hidden directories. Exit 0 when clean, 1 when findings
// exist, 2 on usage or parse errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	exitFindings = 1
	exitUsage    = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("lintgo", flag.ContinueOnError)
	fset.SetOutput(stderr)
	tests := fset.Bool("tests", false, "also lint _test.go files")
	fset.Usage = func() {
		fmt.Fprintln(stderr, "usage: lintgo [-tests] [path...]")
		fmt.Fprintln(stderr, "lints Go sources for determinism rules GO001-GO005; paths default to .")
		fset.PrintDefaults()
	}
	if err := fset.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}

	paths := fset.Args()
	if len(paths) == 0 {
		paths = []string{"."}
	}
	files, err := goFiles(paths, *tests)
	if err != nil {
		fmt.Fprintf(stderr, "lintgo: %v\n", err)
		return exitUsage
	}

	var all []finding
	tokens := token.NewFileSet()
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "lintgo: %v\n", err)
			return exitUsage
		}
		fnd, err := checkSource(tokens, f, src)
		if err != nil {
			fmt.Fprintf(stderr, "lintgo: %v\n", err)
			return exitUsage
		}
		all = append(all, fnd...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.rule < b.rule
	})
	for _, f := range all {
		fmt.Fprintf(stdout, "%s:%d: %s: %s\n", f.file, f.line, f.rule, f.msg)
	}
	if len(all) > 0 {
		fmt.Fprintf(stdout, "%d finding(s)\n", len(all))
		return exitFindings
	}
	return 0
}

// goFiles expands the argument list into .go source files. Directories
// are walked recursively; testdata and hidden directories are skipped, as
// are generated-vendor style paths; _test.go files are skipped unless
// tests is set.
func goFiles(args []string, tests bool) ([]string, error) {
	var files []string
	seen := map[string]bool{}
	add := func(p string) {
		if strings.HasSuffix(p, "_test.go") && !tests {
			return
		}
		if !seen[p] {
			seen[p] = true
			files = append(files, p)
		}
	}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if filepath.Ext(arg) != ".go" {
				return nil, fmt.Errorf("%s: not a .go file", arg)
			}
			add(arg)
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || (strings.HasPrefix(name, ".") && p != arg) {
					return filepath.SkipDir
				}
				return nil
			}
			if filepath.Ext(p) == ".go" {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

// finding is one rule violation at a source position.
type finding struct {
	file string
	line int
	rule string
	msg  string
}

// globalRandFns are the math/rand package-level functions that consume the
// shared global source. Constructors (New, NewSource) are the sanctioned
// alternative and stay legal.
var globalRandFns = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true,
	"Int": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Intn": true, "NormFloat64": true, "Perm": true,
	"Read": true, "Seed": true, "Shuffle": true,
	"Uint32": true, "Uint64": true, "N": true,
}

// tickerFns are the time functions that schedule future wake-ups. They
// share GO002's rationale but a wider exemption (scope "GO002-ticker"):
// the serving layer may pace protocol keep-alives.
var tickerFns = map[string]bool{
	"NewTicker": true, "Tick": true, "After": true,
	"NewTimer": true, "AfterFunc": true,
}

// exemptions: packages whose whole purpose is the thing the rule bans.
// The rule here may carry a scope suffix ("GO002-ticker") selecting a
// wider exemption set than the base rule.
func exempt(rule, slashPath string) bool {
	in := func(dir string) bool {
		return strings.Contains(slashPath, dir+"/") || strings.HasPrefix(slashPath, dir+"/")
	}
	switch rule {
	case "GO002":
		return in("internal/obs") || in("internal/runctl")
	case "GO002-ticker":
		return in("internal/obs") || in("internal/runctl") || in("internal/srv")
	case "GO003":
		return in("internal/par")
	case "GO004":
		return in("internal/runctl")
	}
	return false
}

// rawWriteFns are the os functions that create or replace a file without
// crash-atomicity. os.OpenFile is deliberately not listed: its flag
// argument decides the semantics (O_APPEND is fine), which a syntactic
// lint cannot judge without constant folding.
var rawWriteFns = map[string]bool{
	"WriteFile": true, "Create": true,
}

// checkSource parses one file and applies the three rules. Allow
// directives and per-package exemptions are resolved here so the caller
// only sees real findings.
func checkSource(tokens *token.FileSet, path string, src []byte) ([]finding, error) {
	f, err := parser.ParseFile(tokens, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	slash := filepath.ToSlash(path)

	// allowed[line] holds the rule IDs a lintgo:allow directive names on
	// that line; a directive covers its own line and the line below it.
	allowed := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lintgo:allow") {
				continue
			}
			line := tokens.Position(c.Pos()).Line
			if allowed[line] == nil {
				allowed[line] = map[string]bool{}
			}
			for _, tok := range strings.Fields(strings.TrimPrefix(text, "lintgo:allow")) {
				if strings.HasPrefix(tok, "GO") && len(tok) == 5 {
					if _, err := strconv.Atoi(tok[2:]); err == nil {
						allowed[line][tok] = true
					}
				}
			}
		}
	}

	var out []finding
	report := func(pos token.Pos, rule, format string, args ...any) {
		if exempt(rule, slash) {
			return
		}
		// The scope suffix ("GO002-ticker") selects the exemption set
		// above; findings and allow directives use the base rule ID.
		base, _, _ := strings.Cut(rule, "-")
		p := tokens.Position(pos)
		if allowed[p.Line][base] || allowed[p.Line-1][base] {
			return
		}
		out = append(out, finding{file: path, line: p.Line, rule: base, msg: fmt.Sprintf(format, args...)})
	}

	// Resolve the local names of math/rand, time and os imports; a dot
	// import of math/rand is itself a finding because it hides
	// global-source use.
	randName, timeName, osName := "", "", ""
	for _, imp := range f.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch ipath {
		case "math/rand", "math/rand/v2":
			switch name {
			case ".":
				report(imp.Pos(), "GO001", "dot import of %s hides global-source use; import it named", ipath)
			case "_", "":
				randName = "rand"
				if name == "_" {
					randName = ""
				}
			default:
				randName = name
			}
		case "time":
			switch name {
			case "", "_":
				timeName = "time"
				if name == "_" {
					timeName = ""
				}
			case ".":
				timeName = "time" // dot-imported time.Now is rare; still catch selector form
			default:
				timeName = name
			}
		case "os":
			switch name {
			case "", ".":
				osName = "os"
			case "_":
				osName = ""
			default:
				osName = name
			}
		}
	}

	// GO004 never fires on test files: tests write and corrupt files on
	// purpose (torn artifacts, junk journal lines) and their output is
	// t.TempDir scratch, not a durable result.
	isTest := strings.HasSuffix(slash, "_test.go")
	// GO005 spares func main of a main package, the one place a process
	// exit belongs; Inspect reaches its declaration before its calls.
	var mainFn *ast.FuncDecl

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if f.Name.Name == "main" && n.Recv == nil && n.Name.Name == "main" {
				mainFn = n
			}
		case *ast.GoStmt:
			report(n.Pos(), "GO003",
				"bare go statement: route concurrency through internal/par")
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Obj != nil { // Obj != nil: a local variable, not a package
				return true
			}
			switch {
			case randName != "" && pkg.Name == randName && globalRandFns[sel.Sel.Name]:
				report(n.Pos(), "GO001",
					"global math/rand source via rand.%s: use rand.New(rand.NewSource(seed))", sel.Sel.Name)
			case timeName != "" && pkg.Name == timeName && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since"):
				report(n.Pos(), "GO002",
					"wall-clock read time.%s outside internal/obs and internal/runctl", sel.Sel.Name)
			case timeName != "" && pkg.Name == timeName && tickerFns[sel.Sel.Name]:
				report(n.Pos(), "GO002-ticker",
					"timer/ticker time.%s outside internal/obs, internal/runctl and internal/srv", sel.Sel.Name)
			case !isTest && osName != "" && pkg.Name == osName && rawWriteFns[sel.Sel.Name]:
				report(n.Pos(), "GO004",
					"non-atomic file write os.%s: use runctl.WriteFileAtomic or runctl.AppendFile", sel.Sel.Name)
			case osName != "" && pkg.Name == osName && sel.Sel.Name == "Exit" &&
				(mainFn == nil || n.Pos() < mainFn.Pos() || n.End() > mainFn.End()):
				report(n.Pos(), "GO005",
					"os.Exit outside func main: return an error or an exit code, main owns the exit")
			}
		}
		return true
	})
	return out, nil
}
