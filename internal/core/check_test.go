package core

import (
	"slices"
	"testing"
)

// TestCheckFindsEveryProblem checks Check records every problem of a
// built profile, each with its kind and module, with no early return, and
// Validate refuses with the first of the lowest fatal kind.
func TestCheckFindsEveryProblem(t *testing.T) {
	s := &SOC{
		Name:  "prog",
		TMono: 10,
		Top: &Module{
			Name:   "top",
			Params: Params{Inputs: 1, Outputs: 1, Patterns: 2},
			Children: []*Module{
				{Name: "bad", Params: Params{ScanCells: 9, Patterns: 20}, ScanChains: []int{4, 4}},
				{Name: "idle", Params: Params{Inputs: 1, ScanCells: 3}},
				{Name: "empty", Params: Params{Patterns: 5}},
			},
		},
	}
	type found struct {
		kind   ProblemKind
		module string
	}
	var got []found
	for _, p := range s.Check() {
		got = append(got, found{p.Kind, p.Module})
	}
	want := []found{{ChainSum, "bad"}, {IdleScan, "idle"}, {EmptyTest, "empty"}, {Eq2, "bad"}}
	if !slices.Equal(got, want) {
		t.Errorf("Check = %v, want %v", got, want)
	}
	if err := s.Validate(); err == nil || err.Error() != "T_mono=10 is below T_max=20, violating Eq. 2" {
		t.Errorf("Validate = %v, want the Eq. 2 refusal first", err)
	}
	s.TMono = 20
	if err := s.Validate(); err == nil || err.Error() != "module bad declares scan chains summing to 8 but s=9" {
		t.Errorf("Validate = %v, want the chain-sum refusal", err)
	}
	s.Top.Children[0].ScanChains = []int{4, 5}
	if err := s.Validate(); err != nil {
		t.Errorf("warnings alone: Validate = %v", err)
	}
}
