package power

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func socCores() []CoreLoad {
	return []CoreLoad{
		{Name: "a", Time: 100, Power: 60},
		{Name: "b", Time: 80, Power: 50},
		{Name: "c", Time: 60, Power: 40},
		{Name: "d", Time: 40, Power: 30},
		{Name: "e", Time: 20, Power: 20},
	}
}

func TestScheduleSessionsRespectsBudget(t *testing.T) {
	cores := socCores()
	s, err := ScheduleSessions(cores, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ses := range s.Sessions {
		if ses.Power > 100 {
			t.Errorf("session power %d over budget", ses.Power)
		}
		var maxT int64
		for _, name := range ses.Cores {
			if seen[name] {
				t.Errorf("core %s scheduled twice", name)
			}
			seen[name] = true
			for _, c := range cores {
				if c.Name == name && c.Time > maxT {
					maxT = c.Time
				}
			}
		}
		if ses.Time != maxT {
			t.Errorf("session time %d != max member %d", ses.Time, maxT)
		}
	}
	if len(seen) != len(cores) {
		t.Errorf("scheduled %d of %d cores", len(seen), len(cores))
	}
	// Concurrency must beat the serial baseline here.
	if s.TotalTime >= SerialTime(cores) {
		t.Errorf("total %d not below serial %d", s.TotalTime, SerialTime(cores))
	}
	if !strings.Contains(s.String(), "sessions") {
		t.Error("String wrong")
	}
}

func TestScheduleSessionsTightBudgetIsSerial(t *testing.T) {
	cores := socCores()
	s, err := ScheduleSessions(cores, 60) // only single cores fit... b+e=70 > 60 etc.
	if err != nil {
		t.Fatal(err)
	}
	// c+e = 60 fits; but every session must respect the budget, and total
	// time can never beat the longest core.
	for _, ses := range s.Sessions {
		if ses.Power > 60 {
			t.Errorf("over budget: %d", ses.Power)
		}
	}
	if s.TotalTime > SerialTime(cores) {
		t.Errorf("schedule worse than serial: %d > %d", s.TotalTime, SerialTime(cores))
	}
	if s.TotalTime < 100 {
		t.Error("total below the longest core is impossible")
	}
}

func TestScheduleSessionsErrors(t *testing.T) {
	if _, err := ScheduleSessions(socCores(), 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := ScheduleSessions([]CoreLoad{{Name: "x", Power: 200, Time: 1}}, 100); err == nil {
		t.Error("oversized core accepted")
	}
	if _, err := ScheduleSessions([]CoreLoad{{Name: "x", Power: -1, Time: 1}}, 100); err == nil {
		t.Error("negative power accepted")
	}
}

// Property: the schedule always covers every core exactly once, respects
// the budget, and its total time is between the longest core and the
// serial sum.
func TestScheduleSessionsProperties(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		budget := int64(50 + r.Intn(200))
		var cores []CoreLoad
		var longest int64
		for i := 0; i < n; i++ {
			c := CoreLoad{
				Name:  string(rune('a' + i)),
				Time:  int64(1 + r.Intn(500)),
				Power: int64(1 + r.Int63n(budget)),
			}
			if c.Time > longest {
				longest = c.Time
			}
			cores = append(cores, c)
		}
		s, err := ScheduleSessions(cores, budget)
		if err != nil {
			return false
		}
		count := 0
		for _, ses := range s.Sessions {
			if ses.Power > budget {
				return false
			}
			count += len(ses.Cores)
		}
		return count == n && s.TotalTime >= longest && s.TotalTime <= SerialTime(cores)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
