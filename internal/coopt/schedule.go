package coopt

import (
	"encoding/json"
	"sort"
)

// Schedule is the complete co-optimization result for one SOC at one TAM
// width: the packed placements, the idle-bit decomposition, the
// abort-on-fail session ordering, and the options fingerprint that keyed
// it. Field order is fixed and every float is rounded to four decimals,
// so Encode is byte-stable — the property the serving cache, the restart
// tests and the CI warm≡cold leg all lean on.
type Schedule struct {
	SOC         string `json:"soc"`
	TAMWidth    int    `json:"tam_width"`
	PowerBudget int64  `json:"power_budget,omitempty"`
	OptionsHash string `json:"options_hash"`

	TotalTime  int64   `json:"total_time"`
	LowerBound int64   `json:"lower_bound"`
	LBRatio    float64 `json:"lb_ratio"`

	TDVBits         int64   `json:"tdv_bits"`
	UsefulBits      int64   `json:"useful_bits"`
	WrapperIdleBits int64   `json:"wrapper_idle_bits"`
	TAMIdleBits     int64   `json:"tam_idle_bits"`
	Utilization     float64 `json:"utilization"`

	Placements []Placement `json:"placements"`

	Abort AbortReport `json:"abort"`
}

// AbortReport carries the abort-on-fail view of the schedule: the packed
// start order versus the expected-time-optimal order, with the expected
// times of both under the deterministic failure-probability proxy (see
// failProb).
type AbortReport struct {
	PackedOrder     []string `json:"packed_order"`
	PackedExpected  float64  `json:"packed_expected"`
	OptimalOrder    []string `json:"optimal_order"`
	OptimalExpected float64  `json:"optimal_expected"`
	// Improvement is the fractional expected-time saving of the optimal
	// order over the packed order when tests run serially abort-on-fail.
	Improvement float64 `json:"improvement"`
}

// failProb is the deterministic failure-probability proxy used when no
// yield data exists: cores with more patterns target more faults and are
// proportionally likelier to catch a defect. Scaling by 2·maxPatterns
// keeps every probability in (0, 0.5].
func failProb(patterns, maxPatterns int) float64 {
	if maxPatterns <= 0 {
		return 0
	}
	return float64(patterns) / float64(2*maxPatterns)
}

// abortTest is one placed core test in an abort-on-first-fail flow.
type abortTest struct {
	name string
	time int64
	p    float64 // failure probability, in [0, 1]
}

// expectedTime returns the expected test time of running the tests in
// order, stopping at the first failure:
//
//	E[t] = Σ_k t_k · Π_{j<k} (1 − p_j)
func expectedTime(order []abortTest) float64 {
	reach := 1.0
	var e float64
	for _, t := range order {
		e += float64(t.time) * reach
		reach *= 1 - t.p
	}
	return e
}

// optimalOrder returns the order minimizing expectedTime. By the exchange
// argument, a before b is optimal exactly when t_a·p_b ≤ t_b·p_a, so a
// stable sort on the cross-multiplied t/p ratio is globally optimal, and
// never-failing tests (p = 0) sort last.
func optimalOrder(tests []abortTest) []abortTest {
	order := append([]abortTest(nil), tests...)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return float64(a.time)*b.p < float64(b.time)*a.p
	})
	return order
}

// buildSchedule dresses a raw packing as the serving artifact.
func buildSchedule(socName string, cores []Core, pk *Packing, opts Options) *Schedule {
	s := &Schedule{
		SOC:             socName,
		TAMWidth:        pk.TAMWidth,
		PowerBudget:     opts.PowerBudget,
		OptionsHash:     opts.OptionsHash(),
		TotalTime:       pk.TotalTime,
		LowerBound:      pk.LowerBound,
		LBRatio:         round4(ratio(pk.TotalTime, pk.LowerBound)),
		TDVBits:         pk.TDVBits,
		UsefulBits:      pk.UsefulBits,
		WrapperIdleBits: pk.WrapperIdleBits,
		TAMIdleBits:     pk.TAMIdleBits,
		Utilization:     round4(ratio(pk.UsefulBits, pk.TDVBits)),
		Placements:      pk.Placements,
	}

	maxPatterns := 0
	patterns := make(map[string]int, len(cores))
	for _, c := range cores {
		patterns[c.Name] = c.Test.Patterns
		if c.Test.Patterns > maxPatterns {
			maxPatterns = c.Test.Patterns
		}
	}
	// Abort-on-fail ordering over the placed tests, in packed start order.
	tests := make([]abortTest, len(pk.Placements))
	for i, p := range pk.Placements {
		tests[i] = abortTest{name: p.Core, time: p.Finish - p.Start, p: failProb(patterns[p.Core], maxPatterns)}
	}
	opt := optimalOrder(tests)
	s.Abort = AbortReport{
		PackedExpected:  round4(expectedTime(tests)),
		OptimalExpected: round4(expectedTime(opt)),
	}
	for _, t := range tests {
		s.Abort.PackedOrder = append(s.Abort.PackedOrder, t.name)
	}
	for _, t := range opt {
		s.Abort.OptimalOrder = append(s.Abort.OptimalOrder, t.name)
	}
	if s.Abort.PackedExpected > 0 {
		s.Abort.Improvement = round4(1 - s.Abort.OptimalExpected/s.Abort.PackedExpected)
	}
	return s
}

// Encode renders the schedule as its canonical artifact bytes: compact
// JSON plus a trailing newline. Identical schedules encode identically.
func (s *Schedule) Encode() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
