package coopt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/itc02"
	"repro/internal/tam"
)

// rect builds a single-configuration core for hand-made packing tests.
func rect(name string, w int, t, power int64) Core {
	return Core{
		Name:    name,
		Test:    tam.CoreTest{Name: name, Patterns: 1},
		Configs: []Config{{Width: w, Time: t}},
		Power:   power,
	}
}

// checkValid verifies the physical validity of a packing: every placement
// inside the TAM, no line double-booked by overlapping placements, and the
// makespan equal to the latest finish.
func checkValid(t *testing.T, pk *Packing) {
	t.Helper()
	var latest int64
	for i, p := range pk.Placements {
		if len(p.Lines) != p.Width {
			t.Fatalf("%s: %d lines for width %d", p.Core, len(p.Lines), p.Width)
		}
		for _, l := range p.Lines {
			if l < 0 || l >= pk.TAMWidth {
				t.Fatalf("%s: line %d outside TAM width %d", p.Core, l, pk.TAMWidth)
			}
		}
		if p.Finish <= p.Start && p.Finish != p.Start {
			t.Fatalf("%s: negative duration", p.Core)
		}
		if p.Finish > latest {
			latest = p.Finish
		}
		for _, q := range pk.Placements[i+1:] {
			if p.Start >= q.Finish || q.Start >= p.Finish {
				continue // disjoint in time
			}
			lines := map[int]bool{}
			for _, l := range p.Lines {
				lines[l] = true
			}
			for _, l := range q.Lines {
				if lines[l] {
					t.Fatalf("line %d double-booked by %s and %s", l, p.Core, q.Core)
				}
			}
		}
	}
	if latest != pk.TotalTime {
		t.Fatalf("TotalTime %d != latest finish %d", pk.TotalTime, latest)
	}
}

// TestPackAllITC02WithinTwiceLowerBound is the acceptance gate: on every
// ITC'02 SOC at TAM width 32, the heuristic schedule is valid, at least
// the lower bound, and within 2× of it. It also pins the packer's output:
// the core count, total time and lower bound of each SOC must stay
// exactly as recorded, so any change to the staircases, the bound or the
// placement order shows up here.
func TestPackAllITC02WithinTwiceLowerBound(t *testing.T) {
	want := map[string]struct {
		cores             int
		total, lowerBound int64
	}{
		"d695":    {10, 21035, 19445},
		"h953":    {8, 36392, 34832},
		"f2126":   {4, 166711, 160734},
		"g1023":   {14, 11721, 9577},
		"g12710":  {4, 772305, 765610},
		"p22810":  {28, 262921, 228100},
		"p34392":  {20, 523066, 469931},
		"p93791":  {32, 825474, 741680},
		"t512505": {31, 5190334, 5115074},
		"a586710": {7, 26275262, 16307320},
	}
	socs, err := itc02.AllSOCs()
	if err != nil {
		t.Fatal(err)
	}
	if len(socs) != len(want) {
		t.Fatalf("expected %d ITC'02 SOCs, got %d", len(want), len(socs))
	}
	for _, s := range socs {
		cores, err := BuildCores(s, 32)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		pk, err := Pack(cores, 32, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		checkValid(t, pk)
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("%s: no pinned result", s.Name)
		}
		if len(cores) != w.cores || pk.TotalTime != w.total || pk.LowerBound != w.lowerBound {
			t.Errorf("%s: cores/total/lower bound = %d/%d/%d, want %d/%d/%d", s.Name,
				len(cores), pk.TotalTime, pk.LowerBound, w.cores, w.total, w.lowerBound)
		}
		if pk.TotalTime < pk.LowerBound {
			t.Errorf("%s: total %d beats lower bound %d — bound or packer broken",
				s.Name, pk.TotalTime, pk.LowerBound)
		}
		if pk.TotalTime > 2*pk.LowerBound {
			t.Errorf("%s: total %d exceeds 2x lower bound %d", s.Name, pk.TotalTime, pk.LowerBound)
		}
		if pk.TDVBits != 2*32*pk.TotalTime {
			t.Errorf("%s: TDV accounting broken", s.Name)
		}
		if pk.TAMIdleBits < 0 || pk.WrapperIdleBits < 0 {
			t.Errorf("%s: negative idle bits", s.Name)
		}
	}
}

// TestSweepByteIdenticalAcrossWorkers is the determinism gate: the full
// width sweep must marshal to the same bytes for every worker count.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	s, err := itc02.SOCByName("d695")
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{16, 24, 32, 40, 48, 56, 64}
	var ref []byte
	for _, workers := range []int{1, 2, 4, 8} {
		points, err := Sweep(s, widths, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := mustJSON(t, points)
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("workers=%d produced different bytes:\n%s\nvs\n%s", workers, b, ref)
		}
	}
}

// TestScheduleByteIdenticalAcrossRuns: repeated cold computes of the same
// schedule encode identically (the checkpointless-restart property the
// serving cache depends on — nothing carries over between calls).
func TestScheduleByteIdenticalAcrossRuns(t *testing.T) {
	s, err := itc02.SOCByName("g1023")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{TAMWidth: 24, PowerBudget: 0}
	var ref []byte
	for run := 0; run < 3; run++ {
		sch, err := Optimize(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sch.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("run %d produced different bytes", run)
		}
	}
	if ref[len(ref)-1] != '\n' {
		t.Fatal("artifact must end in a newline")
	}
}

func TestPackPowerBudget(t *testing.T) {
	// Three unit-width rectangles, each power 5, budget 10: at most two
	// may overlap even though the TAM has room for all three.
	cores := []Core{rect("a", 1, 100, 5), rect("b", 1, 100, 5), rect("c", 1, 100, 5)}
	pk, err := Pack(cores, 4, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, pk)
	for _, p := range pk.Placements {
		over := int64(0)
		for _, q := range pk.Placements {
			if q.Start < p.Finish && q.Finish > p.Start {
				over += q.Power
			}
		}
		if over > 10 {
			t.Fatalf("power %d over budget 10 while %s runs", over, p.Core)
		}
	}
	if pk.TotalTime != 200 {
		t.Fatalf("expected serialization into two waves (200), got %d", pk.TotalTime)
	}

	if _, err := Pack([]Core{rect("hot", 1, 10, 99)}, 4, 10, nil); err == nil {
		t.Fatal("core alone above the budget must be rejected")
	}
}

func TestPackPrecedence(t *testing.T) {
	cores := []Core{rect("a", 2, 10, 0), rect("b", 2, 10, 0)}
	pk, err := Pack(cores, 4, 0, [][2]string{{"b", "a"}}) // a after b
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, pk)
	var a, b Placement
	for _, p := range pk.Placements {
		if p.Core == "a" {
			a = p
		} else {
			b = p
		}
	}
	if a.Start < b.Finish {
		t.Fatalf("a starts at %d before b finishes at %d", a.Start, b.Finish)
	}

	if _, err := Pack(cores, 4, 0, [][2]string{{"a", "b"}, {"b", "a"}}); err == nil {
		t.Fatal("precedence cycle must be rejected")
	}
	if _, err := Pack(cores, 4, 0, [][2]string{{"ghost", "a"}}); err == nil {
		t.Fatal("unknown precedence name must be rejected")
	}
	if _, err := Pack(cores, 4, 0, [][2]string{{"a", "a"}}); err == nil {
		t.Fatal("self-edge must be rejected")
	}
}

func TestPackRejectsBadWidth(t *testing.T) {
	cores := []Core{rect("a", 1, 1, 0)}
	if _, err := Pack(cores, 0, 0, nil); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := Pack(cores, MaxTAMWidth+1, 0, nil); err == nil {
		t.Fatal("width beyond ceiling accepted")
	}
	if _, err := Pack([]Core{rect("a", 1, 1, 0), rect("a", 1, 1, 0)}, 4, 0, nil); err == nil {
		t.Fatal("duplicate core names accepted")
	}
	if _, err := Pack([]Core{rect("a", 5, 1, 0)}, 4, 0, nil); err == nil {
		t.Fatal("configuration wider than the TAM accepted")
	}
	if _, err := Pack([]Core{rect("a", 1, -1, 0)}, 4, 0, nil); err == nil {
		t.Fatal("negative test time accepted")
	}
	if _, err := Pack([]Core{rect("a", 1, 1, -1)}, 4, 0, nil); err == nil {
		t.Fatal("negative power accepted")
	}
	notStair := rect("a", 1, 10, 0)
	notStair.Configs = append(notStair.Configs, Config{Width: 2, Time: 20})
	if _, err := Pack([]Core{notStair}, 4, 0, nil); err == nil {
		t.Fatal("configurations that are not a staircase accepted")
	}
}

// TestSweepParetoMonotone: frontier-marked points must strictly improve
// with width, and the widest point's time never beats the lower bound.
func TestSweepParetoMonotone(t *testing.T) {
	s, err := itc02.SOCByName("h953")
	if err != nil {
		t.Fatal(err)
	}
	points, err := Sweep(s, []int{16, 32, 48, 64}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	best := int64(-1)
	for _, p := range points {
		if p.TotalTime < p.LowerBound {
			t.Fatalf("width %d: total %d below lower bound %d", p.TAMWidth, p.TotalTime, p.LowerBound)
		}
		if p.Pareto {
			if best >= 0 && p.TotalTime >= best {
				t.Fatalf("width %d marked Pareto but does not improve %d", p.TAMWidth, best)
			}
			best = p.TotalTime
		}
	}
	if !points[0].Pareto {
		t.Fatal("narrowest width must always be on the frontier")
	}
}

// BenchmarkPack times the rectangle packer on every ITC'02 SOC at TAM
// width 32. The staircases are built once per SOC outside the timer, as
// every real caller builds them once; the packing is the hot loop.
func BenchmarkPack(b *testing.B) {
	socs, err := itc02.AllSOCs()
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range socs {
		cores, err := BuildCores(s, 32)
		if err != nil {
			b.Fatalf("%s: %v", s.Name, err)
		}
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Pack(cores, 32, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fuzzCores is the most cores a FuzzPack input decodes to, and fuzzConfigs
// the most configurations per core: enough for every ITC'02 SOC at W=32.
const fuzzCores, fuzzConfigs = 64, 64

// encodeCores writes cores in the byte form decodeCores reads: per core,
// the configuration count, each configuration's width and time, and the
// power, all as uvarints.
func encodeCores(cores []Core) []byte {
	var b []byte
	for _, c := range cores {
		b = binary.AppendUvarint(b, uint64(len(c.Configs)))
		for _, cfg := range c.Configs {
			b = binary.AppendUvarint(b, uint64(cfg.Width))
			b = binary.AppendUvarint(b, uint64(cfg.Time))
		}
		b = binary.AppendUvarint(b, uint64(c.Power))
	}
	return b
}

// decodeCores reads the cores encodeCores writes, named c0, c1, ... and
// with one pattern each. Values are taken as given apart from bounds that
// keep every sum Pack forms far from overflow: widths below 256, times
// and powers below 2^40. A truncated last core is dropped.
func decodeCores(data []byte) []Core {
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	var cores []Core
	for len(cores) < fuzzCores {
		n, ok := next()
		if !ok {
			break
		}
		name := fmt.Sprintf("c%d", len(cores))
		c := Core{Name: name, Test: tam.CoreTest{Name: name, Patterns: 1}}
		for j := uint64(0); j < min(n, fuzzConfigs) && ok; j++ {
			var w, t uint64
			if w, ok = next(); ok {
				t, ok = next()
			}
			c.Configs = append(c.Configs, Config{Width: int(w % 256), Time: int64(t % (1 << 40))})
		}
		p, pok := next()
		if !ok || !pok {
			break
		}
		c.Power = int64(p % (1 << 40))
		cores = append(cores, c)
	}
	return cores
}

// FuzzPack fuzzes the packer's cores, configurations, TAM width, power
// budget and precedence edges (byte pairs indexing the cores), seeded
// from the ITC'02 cores at W=32. Pack must either return an error or a
// packing that is valid, places every core exactly once in one of its
// configurations, takes at least LowerBound, keeps every precedence edge
// and never runs cores whose summed power exceeds a positive budget.
func FuzzPack(f *testing.F) {
	socs, err := itc02.AllSOCs()
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range socs {
		cores, err := BuildCores(s, 32)
		if err != nil {
			f.Fatalf("%s: %v", s.Name, err)
		}
		var budget int64
		var prec []byte
		if i%2 == 1 {
			for _, c := range cores {
				budget = max(budget, 2*c.Power)
			}
			prec = []byte{0, 1, 2, 3, 1, 3}
		}
		f.Add(uint8(32), budget, encodeCores(cores), prec)
	}
	f.Fuzz(func(t *testing.T, wb uint8, budget int64, data, prec []byte) {
		w := int(wb) % (MaxTAMWidth + 2) // 0 and MaxTAMWidth+1 must be rejected
		cores := decodeCores(data)
		var edges [][2]string
		if len(cores) > 0 {
			for i := 0; i+1 < len(prec); i += 2 {
				edges = append(edges, [2]string{
					cores[int(prec[i])%len(cores)].Name, cores[int(prec[i+1])%len(cores)].Name})
			}
		}
		pk, err := Pack(cores, w, budget, edges)
		if err != nil {
			return
		}
		checkValid(t, pk)

		at := make(map[string]Placement, len(pk.Placements))
		for _, p := range pk.Placements {
			if _, dup := at[p.Core]; dup {
				t.Fatalf("core %s placed twice", p.Core)
			}
			at[p.Core] = p
		}
		if len(at) != len(cores) {
			t.Fatalf("%d placements for %d cores", len(at), len(cores))
		}
		for _, c := range cores {
			p, ok := at[c.Name]
			if !ok {
				t.Fatalf("core %s not placed", c.Name)
			}
			if !slices.ContainsFunc(c.Configs, func(cfg Config) bool {
				return cfg.Width == p.Width && cfg.Time == p.Finish-p.Start
			}) {
				t.Fatalf("core %s placed %d wide for %d cycles, not one of its configurations", c.Name, p.Width, p.Finish-p.Start)
			}
		}
		if lb := LowerBound(cores, w); pk.LowerBound != lb || pk.TotalTime < lb {
			t.Fatalf("total time %d, lower bound %d (packing reports %d)", pk.TotalTime, lb, pk.LowerBound)
		}
		for _, e := range edges {
			if before, after := at[e[0]], at[e[1]]; after.Start < before.Finish {
				t.Fatalf("%s starts at %d before its predecessor %s finishes at %d", e[1], after.Start, e[0], before.Finish)
			}
		}
		if budget > 0 {
			// The summed power peaks at some placement's start.
			for _, p := range pk.Placements {
				var sum int64
				for _, q := range pk.Placements {
					if q.Start <= p.Start && p.Start < q.Finish {
						sum += q.Power
					}
				}
				if sum > budget {
					t.Fatalf("power %d over budget %d at cycle %d", sum, budget, p.Start)
				}
			}
		}
	})
}
