package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// stmtKind classifies one statement of a .bench source file.
type stmtKind uint8

// Statement kinds of the .bench format.
const (
	benchInput  stmtKind = iota // INPUT(name)
	benchOutput                 // OUTPUT(name)
	benchGate                   // name = TYPE(fanin, ...)
)

// ProblemKind classifies a Problem.
type ProblemKind uint8

// Problem kinds, one per way a .bench source fails.
const (
	Syntax              ProblemKind = iota // a line that is not a .bench statement
	UnknownType                            // a gate type token naming no supported type
	DuplicateDefinition                    // a second INPUT, or a second gate, driving one net
	MultiplyDriven                         // a net both declared INPUT and driven by a gate
	Arity                                  // a gate with a fanin count its type does not allow
	Undriven                               // a net a gate or an OUTPUT reads that nothing drives
	Cycle                                  // a combinational cycle
	DuplicateOutput                        // a second OUTPUT of one net
)

// Problem is one defect ReadBench or Builder.Build found.
type Problem struct {
	Kind    ProblemKind
	File    string
	Line    int    // source line, or 0 when declared without one
	Subject string // the net, or the cycle's path, concerned; "" for syntax
	Msg     string
}

// Error renders the problem in the parser's "bench file:line" style.
func (p Problem) Error() string {
	if p.Line > 0 {
		return fmt.Sprintf("bench %s:%d: %s", p.File, p.Line, p.Msg)
	}
	return fmt.Sprintf("bench %s: %s", p.File, p.Msg)
}

// joinProblems returns the problems as one error, the first on the first
// line, or nil when there are none.
func joinProblems(ps []Problem) error {
	errs := make([]error, len(ps))
	for i := range ps {
		errs[i] = ps[i]
	}
	return errors.Join(errs...)
}

// scan reads a .bench source into b leniently: it declares every line
// that parses, records every line that does not as a Syntax problem, and
// scans to the end of the input either way. The error is an I/O error from
// the reader, if any.
func (b *Builder) scan(r io.Reader) ([]Problem, error) {
	var probs []Problem
	badLine := func(line int, format string, args ...any) {
		probs = append(probs, Problem{Kind: Syntax, File: b.name, Line: line, Msg: fmt.Sprintf(format, args...)})
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		b.line = int32(lineNo)
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case isDecl(line, "INPUT"), isDecl(line, "OUTPUT"):
			declare, kw := b.Input, "INPUT"
			if !isDecl(line, kw) {
				declare, kw = b.Output, "OUTPUT"
			}
			arg, msg := parseParen(line[len(kw):])
			if msg != "" {
				badLine(lineNo, "%s", msg)
				continue
			}
			declare(arg)
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
			typ := gateTypeByName(tname)
			if !typ.Valid() {
				if b.typeNames == nil {
					b.typeNames = map[int32]string{}
				}
				b.typeNames[int32(len(b.decls))] = tname
			}
			b.Gate(lhs, typ, fanin...)
		}
	}
	if err := sc.Err(); err != nil {
		return probs, fmt.Errorf("bench %s: %w", b.name, err)
	}
	return probs, nil
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
// The returned circuit is finalized. On a source ReadBench finds problems
// in, the error joins them all (errors.Join), the first on its first line.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	src, err := ReadBench(name, r)
	if err != nil {
		return nil, err
	}
	return src.Circuit, joinProblems(src.Problems)
}

// BenchSource is a .bench source as ReadBench read it.
type BenchSource struct {
	Circuit  *Circuit // nil when Problems is not empty
	Lines    []int    // the line declaring each gate of Circuit, by ID
	Problems []Problem
}

// ReadBench reads a .bench source leniently: it scans every line into a
// Builder, then builds the circuit, and records every problem on the
// way instead of stopping at the first. Problems come in Builder.Build's
// order, the syntax problems first. ParseBench and the netlist linter both
// read through it, so what the parser accepts and what the linter reports
// cannot drift apart. The error is an I/O error from the reader.
func ReadBench(name string, r io.Reader) (*BenchSource, error) {
	b := NewBuilder(name)
	probs, err := b.scan(r)
	if err != nil {
		return nil, err
	}
	c, id, more := b.build()
	if len(probs) > 0 {
		c = nil
	}
	src := &BenchSource{Circuit: c, Problems: append(probs, more...)}
	if c != nil {
		src.Lines = make([]int, c.NumGates())
		for _, d := range b.decls {
			if d.kind != benchOutput {
				src.Lines[id[d.net]] = int(d.line)
			}
		}
	}
	return src, nil
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

// gateTypeByName resolves a .bench gate type token (case-insensitive;
// NOT/INV and BUF/BUFF are aliases) to its GateType: any name of the gate
// table but INPUT, or an invalid type for any other token.
func gateTypeByName(s string) GateType {
	switch u := strings.ToUpper(s); u {
	case "BUFF":
		return Buf
	case "INV":
		return Not
	default:
		for t := Buf; t < numGateTypes; t++ {
			if gateTable[t].name == u {
				return t
			}
		}
	}
	return numGateTypes
}
