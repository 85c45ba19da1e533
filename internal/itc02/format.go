package itc02

import (
	"bufio"
	"fmt"
	"io"
	"sort"
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
// modules.

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

// ParseSOC reads a SOC description.
func ParseSOC(r io.Reader) (*core.SOC, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)

	s := &core.SOC{}
	mods := map[string]*core.Module{}
	children := map[string][]string{}
	var order []string
	topName := ""
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
		fields := strings.Fields(line)
		switch fields[0] {
		case "soc":
			if len(fields) != 2 {
				return nil, fmt.Errorf("soc line %d: want 'soc <name>'", lineNo)
			}
			s.Name = fields[1]
		case "tmono":
			if len(fields) != 2 {
				return nil, fmt.Errorf("soc line %d: want 'tmono <n>'", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("soc line %d: bad tmono %q", lineNo, fields[1])
			}
			s.TMono = n
		case "module":
			if len(fields) < 2 {
				return nil, fmt.Errorf("soc line %d: module needs a name", lineNo)
			}
			name := fields[1]
			if _, dup := mods[name]; dup {
				return nil, fmt.Errorf("soc line %d: duplicate module %q", lineNo, name)
			}
			m := &core.Module{Name: name}
			i := 2
			for i < len(fields) {
				key := fields[i]
				if key == "testeraccess" {
					m.PortsTesterAccessible = true
					i++
					continue
				}
				if i+1 >= len(fields) {
					return nil, fmt.Errorf("soc line %d: key %q missing value", lineNo, key)
				}
				val := fields[i+1]
				i += 2
				if key == "children" {
					children[name] = strings.Split(val, ",")
					continue
				}
				if key == "sc" {
					for _, part := range strings.Split(val, ",") {
						l, err := strconv.Atoi(strings.TrimSpace(part))
						if err != nil || l < 0 {
							return nil, fmt.Errorf("soc line %d: bad scan-chain length %q", lineNo, part)
						}
						m.ScanChains = append(m.ScanChains, l)
					}
					continue
				}
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("soc line %d: bad value %q for %q", lineNo, val, key)
				}
				switch key {
				case "i":
					m.Inputs = n
				case "o":
					m.Outputs = n
				case "b":
					m.Bidirs = n
				case "s":
					m.ScanCells = n
				case "t":
					m.Patterns = n
				default:
					return nil, fmt.Errorf("soc line %d: unknown key %q", lineNo, key)
				}
			}
			mods[name] = m
			order = append(order, name)
		case "top":
			if len(fields) != 2 {
				return nil, fmt.Errorf("soc line %d: want 'top <name>'", lineNo)
			}
			topName = fields[1]
		default:
			return nil, fmt.Errorf("soc line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, fmt.Errorf("soc: missing 'soc <name>' directive")
	}
	if topName == "" {
		return nil, fmt.Errorf("soc: missing 'top' directive")
	}

	// Resolve children and check the hierarchy is a tree rooted at top.
	childOf := map[string]string{}
	for parent, kids := range children {
		for _, k := range kids {
			k = strings.TrimSpace(k)
			ch, ok := mods[k]
			if !ok {
				return nil, fmt.Errorf("soc: module %q references unknown child %q", parent, k)
			}
			if prev, taken := childOf[k]; taken {
				return nil, fmt.Errorf("soc: module %q embedded by both %q and %q", k, prev, parent)
			}
			childOf[k] = parent
			mods[parent].Children = append(mods[parent].Children, ch)
		}
	}
	top, ok := mods[topName]
	if !ok {
		return nil, fmt.Errorf("soc: top module %q not defined", topName)
	}
	if _, embedded := childOf[topName]; embedded {
		return nil, fmt.Errorf("soc: top module %q is embedded in another module", topName)
	}
	// Every module must be reachable from the top (no orphans, no cycles:
	// single-parent + reachable-from-root implies a tree).
	reach := map[string]bool{}
	var walk func(m *core.Module) error
	walk = func(m *core.Module) error {
		if reach[m.Name] {
			return fmt.Errorf("soc: cycle through module %q", m.Name)
		}
		reach[m.Name] = true
		for _, ch := range m.Children {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(top); err != nil {
		return nil, err
	}
	if len(reach) != len(mods) {
		var orphans []string
		for _, n := range order {
			if !reach[n] {
				orphans = append(orphans, n)
			}
		}
		sort.Strings(orphans)
		return nil, fmt.Errorf("soc: modules not reachable from top: %v", orphans)
	}
	s.Top = top
	return s, nil
}

// ParseSOCString parses an in-memory description.
func ParseSOCString(src string) (*core.SOC, error) {
	return ParseSOC(strings.NewReader(src))
}
