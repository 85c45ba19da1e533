package itc02

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// The textual SOC description format, in the spirit of the ITC'02 .soc
// files (those are line-oriented module descriptions too):
//
//	soc p34392
//	tmono 0
//	module Core0 i 32 o 27 b 114 s 0 t 27 children Core1,Core2,Core10,Core18
//	module Core1 i 15 o 94 b 0 s 806 t 210 sc 403,403
//	module Core1 ... testeraccess
//	top Core0
//
// '#' starts a comment. Keys within a module line may appear in any order
// after the name; children is a comma-separated list of module names
// (forward references allowed); sc is an optional comma-separated list of
// internal scan-chain lengths (the ITC'02 files publish these per core —
// the SOC linter checks their sum against s); testeraccess marks chip-pin
// modules. A description needs a 'soc <name>' and a 'top <name>' line,
// and its modules must form one tree under the top: every child defined,
// embedded once, and reachable from the top.

// WriteSOC serializes the SOC profile.
func WriteSOC(w io.Writer, s *core.SOC) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "soc %s\n", s.Name)
	fmt.Fprintf(bw, "tmono %d\n", s.TMono)
	for _, m := range s.Modules() {
		fmt.Fprintf(bw, "module %s i %d o %d b %d s %d t %d",
			m.Name, m.Inputs, m.Outputs, m.Bidirs, m.ScanCells, m.Patterns)
		if len(m.ScanChains) > 0 {
			lens := make([]string, len(m.ScanChains))
			for i, l := range m.ScanChains {
				lens[i] = strconv.Itoa(l)
			}
			fmt.Fprintf(bw, " sc %s", strings.Join(lens, ","))
		}
		if len(m.Children) > 0 {
			names := make([]string, len(m.Children))
			for i, ch := range m.Children {
				names[i] = ch.Name
			}
			fmt.Fprintf(bw, " children %s", strings.Join(names, ","))
		}
		if m.PortsTesterAccessible {
			fmt.Fprint(bw, " testeraccess")
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "top %s\n", s.Top.Name)
	return bw.Flush()
}

// SOCString renders the SOC profile as a string. It cannot fail: a
// strings.Builder never rejects a write, so the WriteSOC error is
// structurally nil and this entry point stays panic-free.
func SOCString(s *core.SOC) string {
	var b strings.Builder
	_ = WriteSOC(&b, s)
	return b.String()
}

// ParseSOC reads a SOC description and returns the first problem ReadSOC
// finds in it as the error.
func ParseSOC(r io.Reader) (*core.SOC, error) {
	src, err := ReadSOC(r)
	switch {
	case len(src.Problems) > 0:
		return nil, src.Problems[0]
	case err != nil:
		return nil, err
	}
	return &core.SOC{Name: src.Name, TMono: src.TMono, Top: src.Top}, nil
}

// ParseSOCString parses an in-memory description.
func ParseSOCString(src string) (*core.SOC, error) {
	return ParseSOC(strings.NewReader(src))
}

// ProblemKind classifies a Problem.
type ProblemKind uint8

// Problem kinds, one per way a description fails.
const (
	Malformed       ProblemKind = iota // a line the grammar rejects, or no 'soc <name>' line
	DuplicateModule                    // a second definition of a module name
	UndefinedChild                     // a children list names an undefined module
	SharedChild                        // a module embedded by two parents
	Cycle                              // a hierarchy cycle, or the top embedded in a module
	NoTop                              // the top module is missing or undefined
	Orphan                             // a module the top does not reach
)

// Problem is one defect ReadSOC found in a description.
type Problem struct {
	Kind    ProblemKind
	Line    int    // source line, or 0 when the description as a whole is at fault
	Subject string // the module concerned, or ""
	Msg     string
}

// Error renders the problem as ParseSOC reports it.
func (p Problem) Error() string {
	if p.Line > 0 {
		return fmt.Sprintf("soc line %d: %s", p.Line, p.Msg)
	}
	return "soc: " + p.Msg
}

// SOCSource is a description as ReadSOC read it.
type SOCSource struct {
	Name  string // "" without a 'soc <name>' line
	TMono int
	// Modules lists the modules in definition order; a duplicate
	// definition is dropped. Their Children hold the children that
	// resolved.
	Modules  []SourceModule
	Top      *core.Module // nil when the top is missing or undefined
	Problems []Problem
}

// SourceModule is one module line of a description. ScanChains is
// non-nil when the line has an sc key, even if no length in it parsed.
type SourceModule struct {
	*core.Module
	Line       int
	ChildNames []string // the children list as written, resolved or not
}

// ReadSOC reads a description leniently: it scans every line, then
// resolves the hierarchy in module definition order, and records every
// problem on the way instead of stopping at the first. ParseSOC and the
// SOC linter both read through it, so what the parser accepts and what
// the linter reports cannot drift apart. The error is an I/O error from
// the reader; the hierarchy is left unresolved after one.
func ReadSOC(r io.Reader) (*SOCSource, error) {
	s := &SOCSource{}
	bad := func(kind ProblemKind, line int, subject, format string, args ...any) {
		s.Problems = append(s.Problems, Problem{kind, line, subject, fmt.Sprintf(format, args...)})
	}
	byName := map[string]int{} // module name -> index in s.Modules
	topName, topLine := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "soc":
			if len(fields) != 2 {
				bad(Malformed, lineNo, "", "want 'soc <name>'")
				continue
			}
			s.Name = fields[1]
		case "tmono":
			if len(fields) != 2 {
				bad(Malformed, lineNo, "", "want 'tmono <n>'")
				continue
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				bad(Malformed, lineNo, "", "bad tmono %q", fields[1])
				continue
			}
			s.TMono = n
		case "module":
			if len(fields) < 2 {
				bad(Malformed, lineNo, "", "module needs a name")
				continue
			}
			name := fields[1]
			if i, dup := byName[name]; dup {
				bad(DuplicateModule, lineNo, name,
					"duplicate module %q (first defined at line %d)", name, s.Modules[i].Line)
				continue
			}
			m := SourceModule{Module: &core.Module{Name: name}, Line: lineNo}
			for i := 2; i < len(fields); {
				key := fields[i]
				if key == "testeraccess" {
					m.PortsTesterAccessible = true
					i++
					continue
				}
				if i+1 >= len(fields) {
					bad(Malformed, lineNo, name, "key %q missing value", key)
					break
				}
				val := fields[i+1]
				i += 2
				var p *int
				switch key {
				case "i":
					p = &m.Inputs
				case "o":
					p = &m.Outputs
				case "b":
					p = &m.Bidirs
				case "s":
					p = &m.ScanCells
				case "t":
					p = &m.Patterns
				case "children":
					m.ChildNames = strings.Split(val, ",")
					continue
				case "sc":
					parts := strings.Split(val, ",")
					m.ScanChains = slices.Grow(m.ScanChains, len(parts)) // non-nil from here on
					for _, part := range parts {
						l, err := strconv.Atoi(part)
						if err != nil || l < 0 {
							bad(Malformed, lineNo, name, "bad scan-chain length %q", part)
							continue
						}
						m.ScanChains = append(m.ScanChains, l)
					}
					continue
				default:
					bad(Malformed, lineNo, name, "unknown key %q", key)
					continue
				}
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					bad(Malformed, lineNo, name, "bad value %q for %q", val, key)
					continue
				}
				*p = n
			}
			byName[name] = len(s.Modules)
			s.Modules = append(s.Modules, m)
		case "top":
			if len(fields) != 2 {
				bad(Malformed, lineNo, "", "want 'top <name>'")
				continue
			}
			topName, topLine = fields[1], lineNo
		default:
			bad(Malformed, lineNo, "", "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}

	if s.Name == "" {
		bad(Malformed, 0, "", "missing 'soc <name>' directive")
	}
	// Link each child to the first module that names it.
	parent := map[string]string{}
	for _, m := range s.Modules {
		for _, k := range m.ChildNames {
			i, ok := byName[k]
			if !ok {
				bad(UndefinedChild, m.Line, m.Name, "module %q references undefined child %q", m.Name, k)
				continue
			}
			if prev, taken := parent[k]; taken {
				bad(SharedChild, m.Line, k, "module %q embedded by both %q and %q", k, prev, m.Name)
				continue
			}
			parent[k] = m.Name
			m.Children = append(m.Children, s.Modules[i].Module)
		}
	}
	top, ok := byName[topName]
	switch {
	case topName == "":
		bad(NoTop, 0, "", "missing 'top' directive")
		return s, nil
	case !ok:
		bad(NoTop, topLine, topName, "top module %q not defined", topName)
		return s, nil
	}
	if p, embedded := parent[topName]; embedded {
		bad(Cycle, topLine, topName, "top module %q is embedded in module %q", topName, p)
	}
	// Walk down from the top. With one parent per module, a module
	// reached twice closes a cycle; one never reached is an orphan.
	reached := make([]bool, len(s.Modules))
	var walk func(i int)
	walk = func(i int) {
		m := s.Modules[i]
		if reached[i] {
			bad(Cycle, m.Line, m.Name, "hierarchy cycle through module %q", m.Name)
			return
		}
		reached[i] = true
		for _, ch := range m.Children {
			walk(byName[ch.Name])
		}
	}
	walk(top)
	for i, m := range s.Modules {
		if !reached[i] {
			bad(Orphan, m.Line, m.Name, "module %q is not reachable from top %q", m.Name, topName)
		}
	}
	s.Top = s.Modules[top].Module
	return s, nil
}
