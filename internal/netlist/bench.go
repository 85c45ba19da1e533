package netlist

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
)

// BenchStmtKind classifies one statement of a .bench source file.
type BenchStmtKind uint8

// Statement kinds of the .bench format.
const (
	BenchInput  BenchStmtKind = iota // INPUT(name)
	BenchOutput                      // OUTPUT(name)
	BenchGate                        // name = TYPE(fanin, ...)
)

// BenchStmt is one parsed statement of a .bench source, before any semantic
// checking: the statement scanner keeps going past semantic problems
// (unknown gate types, duplicate definitions, undriven nets) so that
// diagnostic passes can report them all with line positions. TypeKnown is
// false when the gate type token did not name a supported type; Type is
// only meaningful when TypeKnown is true.
type BenchStmt struct {
	Line      int
	Kind      BenchStmtKind
	Name      string // declared net (INPUT/OUTPUT) or assignment LHS
	Type      GateType
	TypeName  string // raw gate type token, as written
	TypeKnown bool
	Fanin     []string
}

// BenchSyntaxError is a line-level syntax error of a .bench source.
type BenchSyntaxError struct {
	File string
	Line int
	Msg  string
}

// Error renders the error in the parser's uniform "bench file:line" style.
func (e *BenchSyntaxError) Error() string {
	return fmt.Sprintf("bench %s:%d: %s", e.File, e.Line, e.Msg)
}

// ScanBenchStmts tokenizes a .bench source leniently: every line that parses
// becomes a BenchStmt, every line that does not becomes a BenchSyntaxError,
// and scanning continues to the end of the input either way. ParseBench and
// the DRC linter share this scanner, so "what the parser accepts" and "what
// the linter sees" cannot drift apart. The final error is an I/O error from
// the reader, if any.
func ScanBenchStmts(file string, r io.Reader) ([]BenchStmt, []*BenchSyntaxError, error) {
	var (
		stmts []BenchStmt
		serrs []*BenchSyntaxError
	)
	badLine := func(line int, format string, args ...any) {
		serrs = append(serrs, &BenchSyntaxError{File: file, Line: line, Msg: fmt.Sprintf(format, args...)})
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case isDecl(line, "INPUT"), isDecl(line, "OUTPUT"):
			kind, kw := BenchInput, "INPUT"
			if !isDecl(line, kw) {
				kind, kw = BenchOutput, "OUTPUT"
			}
			arg, msg := parseParen(line[len(kw):])
			if msg != "" {
				badLine(lineNo, "%s", msg)
				continue
			}
			stmts = append(stmts, BenchStmt{Line: lineNo, Kind: kind, Name: arg})
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				badLine(lineNo, "expected assignment, got %q", line)
				continue
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.IndexByte(rhs, '(')
			close := strings.LastIndexByte(rhs, ')')
			if lhs == "" || open <= 0 || close < open {
				badLine(lineNo, "malformed gate %q", line)
				continue
			}
			tname := strings.TrimSpace(rhs[:open])
			typ, known := ParseGateTypeName(tname)
			var fanin []string
			if args := strings.TrimSpace(rhs[open+1 : close]); args != "" {
				fanin = strings.Split(args, ",")
				for i := range fanin {
					fanin[i] = strings.TrimSpace(fanin[i])
				}
			}
			if slices.Contains(fanin, "") {
				badLine(lineNo, "empty fanin in %q", line)
				continue
			}
			stmts = append(stmts, BenchStmt{
				Line: lineNo, Kind: BenchGate, Name: lhs,
				Type: typ, TypeName: tname, TypeKnown: known, Fanin: fanin,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return stmts, serrs, fmt.Errorf("bench %s: %w", file, err)
	}
	return stmts, serrs, nil
}

// ParseBench reads a circuit in the ISCAS'89 ".bench" format:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G10 = NAND(G0, G1)
//	G23 = DFF(G10)
//
// Gate type names are case-insensitive; NOT may also be spelled INV.
// Forward references are allowed (a gate may use a net defined later).
// Gates are numbered as Builder documents: inputs, then DFFs, then the
// combinational gates by (sweep round, name), in O(n log n) time in gates.
// The returned circuit is finalized.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	stmts, serrs, err := ScanBenchStmts(name, r)
	if err != nil {
		return nil, err
	}
	if len(serrs) > 0 {
		return nil, serrs[0]
	}
	return BuildBench(name, stmts)
}

// FindCycle returns one dependency cycle in the graph as a name path
// "a, b, ..., a", or nil if the graph has none. Traversal order is
// deterministic: sorted names throughout.
func FindCycle(deps map[string][]string) []string {
	names := make([]string, 0, len(deps))
	for n, ds := range deps {
		names = append(names, n)
		slices.Sort(ds)
	}
	slices.Sort(names)
	// onPath[n] is n's position on the current path plus one; done marks
	// the nodes explored to the end.
	onPath, done := map[string]int{}, map[string]bool{}
	var path, cycle []string
	var visit func(n string) bool
	visit = func(n string) bool {
		path = append(path, n)
		onPath[n] = len(path)
		for _, d := range deps[n] {
			if i := onPath[d]; i > 0 {
				cycle = append(slices.Clone(path[i-1:]), d) // close the loop at d
				return true
			} else if !done[d] && visit(d) {
				return true
			}
		}
		path, onPath[n], done[n] = path[:len(path)-1], 0, true
		return false
	}
	for _, n := range names {
		if !done[n] && visit(n) {
			return cycle
		}
	}
	return nil
}

// ParseBenchString is ParseBench over an in-memory string.
func ParseBenchString(name, src string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(src))
}

// WriteBench writes c in the ISCAS'89 .bench format. The output is
// deterministic: inputs, outputs, then gates in ID order.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d DFFs\n", len(c.inputs), len(c.outputs), len(c.dffs))
	for _, in := range c.inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.gates[in].Name)
	}
	for _, out := range c.outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.gates[out].Name)
	}
	for i := range c.gates {
		g := &c.gates[i]
		if g.Type == Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for j, f := range g.Fanin {
			names[j] = c.gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// BenchString renders c as a .bench-format string. It cannot fail: a
// strings.Builder never rejects a write, so the WriteBench error is
// structurally nil — and this entry point stays panic-free regardless of
// the circuit it is handed.
func BenchString(c *Circuit) string {
	var b strings.Builder
	_ = WriteBench(&b, c)
	return b.String()
}

// isDecl reports whether line is a genuine `KEYWORD(name)` declaration.
// The keyword prefix alone is not enough: `INPUT1 = AND(a, b)` is an
// assignment to a net that happens to start with INPUT, so the keyword
// must be followed (after optional spaces) by an opening parenthesis.
func isDecl(line, keyword string) bool {
	return len(line) >= len(keyword) && strings.EqualFold(line[:len(keyword)], keyword) &&
		strings.HasPrefix(strings.TrimSpace(line[len(keyword):]), "(")
}

// parseParen returns the name inside "( name )", or a message saying why
// there is none.
func parseParen(s string) (arg, msg string) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return "", fmt.Sprintf("expected parenthesised name, got %q", s)
	}
	if arg = strings.TrimSpace(s[1 : len(s)-1]); arg == "" {
		return "", "empty name"
	}
	return arg, ""
}

// ParseGateTypeName resolves a .bench gate type token (case-insensitive;
// NOT/INV and BUF/BUFF are aliases) to its GateType: any name of the gate
// table but INPUT.
func ParseGateTypeName(s string) (GateType, bool) {
	switch u := strings.ToUpper(s); u {
	case "BUFF":
		return Buf, true
	case "INV":
		return Not, true
	default:
		for t := Buf; t < numGateTypes; t++ {
			if gateTable[t].name == u {
				return t, true
			}
		}
	}
	return 0, false
}
