package atpg

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// oracleSubjects returns every netlist narrow enough for exhaustive
// verification of ATPG's claims.
func oracleSubjects(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{
		"c17-inline": mustParse(t, "c17-inline", c17Bench),
	}
	paths, err := filepath.Glob(filepath.Join("..", "netlist", "testdata", "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".bench")
		c, err := netlist.ParseBenchString(name, string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(c.PseudoInputs()) > faultsim.MaxOracleInputs {
			continue
		}
		out[name] = c
	}
	return out
}

// TestGenerateAgainstExhaustiveOracle brute-force-audits every claim an
// ATPG run makes, serial and parallel:
//   - a fault reported Detected really is detected by the final patterns;
//   - a fault reported Redundant really is undetectable by ANY input pattern;
//   - the coverage accounting matches an independent exhaustive recount.
func TestGenerateAgainstExhaustiveOracle(t *testing.T) {
	for name, c := range oracleSubjects(t) {
		t.Run(name, func(t *testing.T) {
			universe := faults.CollapsedUniverse(c)
			all := faultsim.AllPatterns(len(c.PseudoInputs()))
			for _, w := range []int{1, 8} {
				opts := DefaultOptions()
				opts.Workers = w
				res := Generate(c, opts)

				for _, o := range res.Outcomes {
					one := []faults.Fault{o.Fault}
					switch o.Status {
					case Detected:
						if faultsim.SerialSimulate(c, res.Patterns, one).NumDetected == 0 {
							t.Errorf("workers=%d: fault %s claimed Detected but no final pattern detects it", w, o.Fault.String(c))
						}
					case Redundant:
						if k := faultsim.SerialSimulate(c, all, one).DetectedBy[0]; k != faultsim.Undetected {
							t.Errorf("workers=%d: fault %s claimed Redundant but pattern %v detects it", w, o.Fault.String(c), all[k])
						}
					}
				}

				recount := faultsim.SerialSimulate(c, res.Patterns, universe)
				if recount.NumDetected != res.NumDetected {
					t.Errorf("workers=%d: NumDetected %d, oracle recount %d", w, res.NumDetected, recount.NumDetected)
				}
				if want := float64(recount.NumDetected) / float64(len(universe)); res.Coverage != want {
					t.Errorf("workers=%d: Coverage %v, oracle recount %v", w, res.Coverage, want)
				}
			}
		})
	}
}

// TestRedundantFaultsProvenExhaustively cross-checks PODEM's redundancy
// proofs from the other direction: enumerate the faults the oracle finds
// undetectable over all 2^w patterns and require ATPG never reports one of
// them Detected.
func TestRedundantFaultsProvenExhaustively(t *testing.T) {
	for name, c := range oracleSubjects(t) {
		t.Run(name, func(t *testing.T) {
			universe := faults.CollapsedUniverse(c)
			table := faultsim.SerialSimulate(c, faultsim.AllPatterns(len(c.PseudoInputs())), universe)
			undetectable := map[string]bool{}
			for i, f := range universe {
				if table.DetectedBy[i] == faultsim.Undetected {
					undetectable[f.String(c)] = true
				}
			}
			res := Generate(c, DefaultOptions())
			for _, o := range res.Outcomes {
				if o.Status == Detected && undetectable[o.Fault.String(c)] {
					t.Errorf("fault %s reported Detected but is exhaustively undetectable", o.Fault.String(c))
				}
			}
		})
	}
}
