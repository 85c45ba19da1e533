// Package power models power-constrained test scheduling — test power is
// the first benefit of modular SOC testing the paper's introduction lists
// ("test power reduction") and the constraint behind the power-aware
// scheduling literature it cites [17, 18]. It provides session-based
// scheduling of core tests under a power budget, the 1D baseline the
// co-optimizer in internal/coopt reports beside its 2D packing.
package power

import (
	"fmt"
	"sort"
)

// CoreLoad is a core's contribution to a power-constrained schedule.
type CoreLoad struct {
	Name  string
	Time  int64 // test time in cycles
	Power int64 // peak power while under test (any consistent unit)
}

// Session is a set of cores tested concurrently.
type Session struct {
	Cores []string
	Time  int64 // duration: the slowest member
	Power int64 // sum of member powers
}

// SessionSchedule is a sequence of sessions run back to back — the
// session-based power-constrained scheduling of [17, 18].
type SessionSchedule struct {
	Budget    int64
	Sessions  []Session
	TotalTime int64
}

// ScheduleSessions packs the cores into sessions so that no session
// exceeds the power budget, aiming to minimize total time: cores are
// taken longest-first and placed into the existing session with the
// smallest time increase that has power headroom, else a new session is
// opened (best-fit decreasing on time).
func ScheduleSessions(cores []CoreLoad, budget int64) (SessionSchedule, error) {
	if budget <= 0 {
		return SessionSchedule{}, fmt.Errorf("power: budget must be positive, got %d", budget)
	}
	for _, c := range cores {
		if c.Power > budget {
			return SessionSchedule{}, fmt.Errorf("power: core %s alone exceeds the budget (%d > %d)",
				c.Name, c.Power, budget)
		}
		if c.Time < 0 || c.Power < 0 {
			return SessionSchedule{}, fmt.Errorf("power: core %s has negative load", c.Name)
		}
	}
	order := make([]int, len(cores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cores[order[a]].Time > cores[order[b]].Time })

	s := SessionSchedule{Budget: budget}
	for _, ci := range order {
		c := cores[ci]
		best := -1
		var bestDelta int64
		for i := range s.Sessions {
			ses := &s.Sessions[i]
			if ses.Power+c.Power > budget {
				continue
			}
			delta := int64(0)
			if c.Time > ses.Time {
				delta = c.Time - ses.Time
			}
			if best < 0 || delta < bestDelta {
				best = i
				bestDelta = delta
			}
		}
		if best < 0 {
			s.Sessions = append(s.Sessions, Session{Cores: []string{c.Name}, Time: c.Time, Power: c.Power})
			continue
		}
		ses := &s.Sessions[best]
		ses.Cores = append(ses.Cores, c.Name)
		ses.Power += c.Power
		if c.Time > ses.Time {
			ses.Time = c.Time
		}
	}
	for _, ses := range s.Sessions {
		s.TotalTime += ses.Time
	}
	return s, nil
}

// SerialTime returns the no-concurrency baseline: the sum of all core
// times (every session a singleton — what an unlimited power budget beats).
func SerialTime(cores []CoreLoad) int64 {
	var t int64
	for _, c := range cores {
		t += c.Time
	}
	return t
}

// String renders a one-line summary.
func (s SessionSchedule) String() string {
	return fmt.Sprintf("power budget %d: %d sessions, total time %d", s.Budget, len(s.Sessions), s.TotalTime)
}
