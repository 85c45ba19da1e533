package lint

import (
	"os"
	"strings"

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

// profileRule maps each kind of problem core.SOC.Check finds to its rule.
// A source never carries a negative count (the reader refuses one as a
// malformed value), so NegativeCount shares SOC001.
var profileRule = [...]string{
	core.NegativeCount: "SOC001",
	core.Eq2:           "SOC010",
	core.Overflow:      "SOC014",
	core.ChainSum:      "SOC008",
	core.IdleScan:      "SOC009",
	core.EmptyTest:     "SOC012",
}

// CheckSOCFile lints a .soc profile file from disk.
func CheckSOCFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CheckSOCSource(path, string(data)), nil
}

// CheckSOCSource lints .soc source text. Unlike itc02.ParseSOC and
// core.SOC.Validate, which return the first problem, the linter reports
// every problem the shared reader finds (SOC001–SOC007) and every problem
// core finds in the profile, each at its source line. A description the
// reader finds no problem in is exactly the profile ParseSOC builds, and
// draws the problems of core.SOC.Check; otherwise each module draws those
// of core.CheckModules, except one whose line holds a malformed value,
// since what the reader built from that line is partial.
func CheckSOCSource(file, src string) *Report {
	r := &Report{}
	s, err := itc02.ReadSOC(strings.NewReader(src))
	malformed := map[int]bool{}
	for _, p := range s.Problems {
		r.Add(socRule[p.Kind], Pos{File: file, Line: p.Line}, p.Subject, "%s", p.Msg)
		malformed[p.Line] = malformed[p.Line] || p.Kind == itc02.Malformed
	}
	if err != nil {
		r.Add("SOC001", Pos{File: file}, "", "reading source: %v", err)
		r.Sort()
		return r
	}
	line := map[string]int{}
	parent := map[string]bool{} // names children, linked or not
	var mods []*core.Module
	for _, sm := range s.Modules {
		if !malformed[sm.Line] {
			line[sm.Name] = sm.Line
			parent[sm.Name] = len(sm.ChildNames) > 0
			mods = append(mods, sm.Module)
		}
	}
	var ps []core.Problem
	if len(s.Problems) == 0 {
		ps = (&core.SOC{Name: s.Name, TMono: s.TMono, Top: s.Top}).Check()
	} else {
		ps = core.CheckModules(s.TMono, mods)
	}
	for _, p := range ps {
		// A module naming children none of which linked is no empty test.
		if p.Kind == core.EmptyTest && parent[p.Module] {
			continue
		}
		r.Add(profileRule[p.Kind], Pos{File: file, Line: line[p.Module]}, p.Module, "%s", p.Msg)
	}
	if s.TMono == 0 {
		r.Add("SOC011", Pos{File: file}, "",
			"T_mono unmeasured: only the optimistic Eq. 3 bound TDV_mono_opt applies")
	}
	r.Sort()
	return r
}
