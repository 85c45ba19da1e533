package coopt

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/soc"
)

// portTerm is the named term between the packer's useful bits and
// Equation 4: Σ_P T_P · (Σ_{C ∈ Child(P)} PortBits(C) − [P tester-
// accessible] · PortBits(P)). Equation 4 charges a module's child ports
// (ExTest) and, unless the tester drives them, its own ports; the packer
// charges every core its own ports once per pattern.
func portTerm(s *core.SOC) int64 {
	var n int64
	for _, m := range s.Modules() {
		var per int64
		for _, ch := range m.Children {
			per += ch.PortBits()
		}
		if m.PortsTesterAccessible {
			per -= m.PortBits()
		}
		n += int64(m.Patterns) * per
	}
	return n
}

// TestUsefulBitsMatchEquation4 holds the packer's bit accounting to the
// paper's: Packing.UsefulBits plus the named port term equals
// SOC.TDVModular exactly, on all ten ITC'02 SOCs and the SOC1/SOC2
// profiles at several TAM widths. The term is pinned where it is non-zero.
func TestUsefulBitsMatchEquation4(t *testing.T) {
	socs, err := itc02.AllSOCs()
	if err != nil {
		t.Fatal(err)
	}
	socs = append(socs, soc.SOC1Profile(), soc.SOC2Profile())
	wantTerm := map[string]int64{"p34392": 363033, "SOC1": 204, "SOC2": 328}
	if len(socs) != 12 {
		t.Fatalf("%d SOCs, want 12", len(socs))
	}
	for _, s := range socs {
		term := portTerm(s)
		if term != wantTerm[s.Name] {
			t.Errorf("%s: port term %d, want %d", s.Name, term, wantTerm[s.Name])
		}
		for _, w := range []int{8, 16, 32, 64} {
			t.Run(fmt.Sprintf("%s/W%d", s.Name, w), func(t *testing.T) {
				cores, err := BuildCores(s, w)
				if err != nil {
					t.Fatal(err)
				}
				pk, err := Pack(cores, w, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := pk.UsefulBits+term, s.TDVModular(); got != want {
					t.Fatalf("useful %d + port term %d = %d, Eq. 4 TDV_modular %d (diff %d)",
						pk.UsefulBits, term, got, want, got-want)
				}
			})
		}
	}
}
