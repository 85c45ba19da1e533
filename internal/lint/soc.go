package lint

import (
	"os"
	"strings"

	"repro/internal/coopt"
	"repro/internal/core"
	"repro/internal/itc02"
)

// socRule maps each kind of problem itc02.ReadSOC finds to its rule.
var socRule = [...]string{
	itc02.Malformed:       "SOC001",
	itc02.DuplicateModule: "SOC002",
	itc02.UndefinedChild:  "SOC003",
	itc02.SharedChild:     "SOC004",
	itc02.Cycle:           "SOC005",
	itc02.NoTop:           "SOC006",
	itc02.Orphan:          "SOC007",
}

// CheckSOCFile lints a .soc profile file from disk.
func CheckSOCFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CheckSOCSource(path, string(data)), nil
}

// CheckSOCSource lints .soc source text. Unlike itc02.ParseSOC — which
// returns the first problem — the linter reports every problem the shared
// reader finds (SOC001–SOC007) alongside the bookkeeping and
// TDV-precondition findings, each at its source line.
func CheckSOCSource(file, src string) *Report {
	r := &Report{}
	s, err := itc02.ReadSOC(strings.NewReader(src))
	for _, p := range s.Problems {
		r.Add(socRule[p.Kind], Pos{File: file, Line: p.Line}, p.Subject, "%s", p.Msg)
	}
	if err != nil {
		r.Add("SOC001", Pos{File: file}, "", "reading source: %v", err)
	} else {
		checkModules(r, file, s.TMono, s.Modules)
	}
	r.Sort()
	return r
}

// CheckSOC lints an already-built SOC profile — the entry point for
// programmatic profiles (e.g. the committed ITC'02 tables) and the socx
// -lint preflight. Structural tree properties are guaranteed by
// construction there, so only the bookkeeping and TDV-precondition rules
// (SOC008–SOC013) apply. Positions carry the SOC name as the file.
func CheckSOC(s *core.SOC) *Report {
	r := &Report{}
	mods := s.Modules()
	src := make([]itc02.SourceModule, len(mods))
	for i, m := range mods {
		src[i].Module = m
	}
	checkModules(r, s.Name, s.TMono, src)
	r.Sort()
	return r
}

// checkModules applies the per-module rules (SOC008–SOC010, SOC012,
// SOC013) to each module, then SOC011 to the profile. A module declares
// scan chains when its ScanChains is non-nil, and has children when it
// links or names any: a source line may declare both and resolve neither.
func checkModules(r *Report, file string, tmono int, mods []itc02.SourceModule) {
	for _, sm := range mods {
		m, pos, name := sm.Module, Pos{File: file, Line: sm.Line}, sm.Name
		if m.ScanChains != nil && m.ScanChainSum() != m.ScanCells {
			r.Add("SOC008", pos, name,
				"module %q scan chains sum to %d but s=%d", name, m.ScanChainSum(), m.ScanCells)
		}
		if m.ScanCells > 0 && m.Patterns == 0 {
			r.Add("SOC009", pos, name,
				"module %q has %d scan cells but t=0: the cells are never exercised", name, m.ScanCells)
		}
		if tmono > 0 && m.Patterns > tmono {
			r.Add("SOC010", pos, name,
				"module %q has T=%d > T_mono=%d, violating Eq. 2 (Benefit would panic)",
				name, m.Patterns, tmono)
		}
		hasChildren := len(m.Children) > 0 || len(sm.ChildNames) > 0
		if m.Patterns > 0 && m.PortBits() == 0 && m.ScanCells == 0 && !hasChildren {
			r.Add("SOC012", pos, name,
				"module %q has t=%d but no ports, scan cells or children: each pattern tests zero data",
				name, m.Patterns)
		}
		// Pre-stitched chains are hard: each needs its own TAM line, so a
		// core with more chains than the widest TAM the scheduler accepts
		// can never connect them all, whatever wrapper configuration is
		// chosen.
		if len(m.ScanChains) > coopt.MaxTAMWidth {
			r.Add("SOC013", pos, name,
				"module %q declares %d pre-stitched scan chains but the TAM ceiling is %d: no wrapper configuration can connect them all",
				name, len(m.ScanChains), coopt.MaxTAMWidth)
		}
	}
	if tmono == 0 {
		r.Add("SOC011", Pos{File: file}, "",
			"T_mono unmeasured: only the optimistic Eq. 3 bound TDV_mono_opt applies")
	}
}
