package core_test

import (
	"math"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/soc"
)

// overflowSeed is one profile of testdata/overflow: the overflow probe
// and one profile per magnitude branch of TestValidateRefusesOverflow.
type overflowSeed struct {
	src  string
	want string // the refusal its "# want:" line names
}

// overflowSeeds returns the profiles of testdata/overflow in file order.
func overflowSeeds(tb testing.TB) []overflowSeed {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "overflow", "*.soc"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no overflow seeds: %v", err)
	}
	var seeds []overflowSeed
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		want, ok := strings.CutPrefix(strings.SplitN(string(data), "\n", 2)[0], "# want: ")
		if !ok {
			tb.Fatalf("%s: first line names no refusal", p)
		}
		seeds = append(seeds, overflowSeed{string(data), want})
	}
	return seeds
}

// TestOverflowSeeds checks each seed profile parses and draws exactly the
// refusal it names, as the matching row of TestValidateRefusesOverflow.
func TestOverflowSeeds(t *testing.T) {
	for _, seed := range overflowSeeds(t) {
		s, err := itc02.ParseSOCString(seed.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err == nil || err.Error() != seed.want {
			t.Errorf("%s: Validate = %v, want %q", s.Name, err, seed.want)
		}
	}
}

// TestValidateAllocs bounds the allocations of Validate on p93791, which
// the serving layer runs on every tdv and schedule request: one walk of
// the module tree, and nothing more on a valid profile.
func TestValidateAllocs(t *testing.T) {
	s, err := itc02.SOCByName("p93791")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Validate() }); n > 16 {
		t.Errorf("Validate on p93791 makes %v allocations, want at most 16", n)
	}
}

// TestAnalyzeAllocs bounds the allocations of Analyze on p93791, which a
// cold tdv request runs: one walk of the module tree, whose only
// allocation is the list of pattern counts NormStdev reads.
func TestAnalyzeAllocs(t *testing.T) {
	s, err := itc02.SOCByName("p93791")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Analyze() }); n > 1 {
		t.Errorf("Analyze on p93791 makes %v allocations, want at most 1", n)
	}
}

// BenchmarkValidate reports the cost of Validate on p93791.
func BenchmarkValidate(b *testing.B) {
	s, err := itc02.SOCByName("p93791")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzTDV holds the equations on every profile Validate accepts: each
// volume equals its exact value, so none wraps, and the Eq. 6 identity
// holds with the chip-port term. Validate refuses an overflow only when
// some term or sum it checks leaves int64. Three metamorphic relations
// hold too: scaling every T and T_mono by k scales every volume by k,
// reversing every module's children changes nothing, and T_mono+1 adds
// the chip's per-pattern bits to TDV_mono and 2·ΣS to the benefit.
func FuzzTDV(f *testing.F) {
	for _, seed := range overflowSeeds(f) {
		f.Add(seed.src, uint8(3))
	}
	socs, err := itc02.AllSOCs()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(socs, soc.SOC1Profile(), soc.SOC2Profile()) {
		f.Add(itc02.SOCString(s), uint8(2))
	}
	f.Fuzz(func(t *testing.T, src string, k uint8) {
		s, err := itc02.ParseSOCString(src)
		if err != nil {
			return
		}
		exact := exactTDV(s)
		if err := s.Validate(); err != nil {
			if p, ok := err.(core.Problem); ok && p.Kind == core.Overflow && exact.largest.IsInt64() {
				t.Fatalf("refused %q, but every checked quantity fits: largest %v", err, exact.largest)
			}
			return
		}
		r := s.Analyze()
		got := volumes(r)
		for i, want := range exact.volumes {
			if !want.IsInt64() || got[i] != want.Int64() {
				t.Fatalf("volume %d = %d, exactly %v", i, got[i], want)
			}
		}
		ref := max(s.TMono, r.TMax)
		if err := s.VerifyIdentity(ref); err != nil {
			t.Fatal(err)
		}

		// Scaling by k: skipped when a scaled count leaves int or the
		// scaled profile overflows.
		kk := 2 + int(k%8)
		scaled := clone(s)
		fits := scaled.TMono <= math.MaxInt/kk
		scaled.TMono *= kk
		for _, m := range scaled.Modules() {
			fits = fits && m.Patterns <= math.MaxInt/kk
			m.Patterns *= kk
		}
		if fits && scaled.Validate() == nil {
			for i, v := range volumes(scaled.Analyze()) {
				if v != int64(kk)*got[i] {
					t.Fatalf("volume %d scaled by %d is %d, want %d", i, kk, v, int64(kk)*got[i])
				}
			}
		}

		rev := clone(s)
		for _, m := range rev.Modules() {
			for i, j := 0, len(m.Children)-1; i < j; i, j = i+1, j-1 {
				m.Children[i], m.Children[j] = m.Children[j], m.Children[i]
			}
		}
		if err := rev.Validate(); err != nil {
			t.Fatalf("reversed children: %v", err)
		}
		if v := volumes(rev.Analyze()); v != got {
			t.Fatalf("reversed children give %v, want %v", v, got)
		}

		if ref == 0 || ref == math.MaxInt {
			return
		}
		at, next := clone(s), clone(s)
		at.TMono, next.TMono = ref, ref+1
		if at.Validate() != nil || next.Validate() != nil {
			return
		}
		ra, rn := at.Analyze(), next.Analyze()
		scan2 := 2 * s.TotalScanCells()
		if d := rn.TDVMonoAct - ra.TDVMonoAct; d != s.Top.PortBits()+scan2 {
			t.Fatalf("T_mono+1 adds %d to TDV_mono, want %d", d, s.Top.PortBits()+scan2)
		}
		if d := rn.Benefit - ra.Benefit; d != scan2 {
			t.Fatalf("T_mono+1 adds %d to the benefit, want 2·ΣS = %d", d, scan2)
		}
	})
}

// volumes returns the report's int64 quantities: TDV_mono_opt,
// TDV_mono, TDV_modular, the penalty, the benefit and the chip-port term.
func volumes(r core.Report) [6]int64 {
	return [6]int64{r.TDVMonoOpt, r.TDVMonoAct, r.TDVModular, r.Penalty, r.Benefit, r.ChipPort}
}

// exact holds a profile's volumes in the order volumes lists them,
// computed without bound, and the largest quantity Validate's magnitude
// check reads.
type exact struct {
	volumes [6]*big.Int
	largest *big.Int
}

// exactTDV computes Eq. 1 and 3–8 on s in math/big. Counts are
// non-negative, as itc02.ParseSOC reads them.
func exactTDV(s *core.SOC) exact {
	n := func(v int) *big.Int { return big.NewInt(int64(v)) }
	ports := func(p core.Params) *big.Int {
		b := new(big.Int).Add(n(p.Inputs), n(p.Outputs))
		return b.Add(b, new(big.Int).Mul(big.NewInt(2), n(p.Bidirs)))
	}
	largest := new(big.Int)
	keep := func(v *big.Int) *big.Int {
		if v.Cmp(largest) > 0 {
			largest.Set(v)
		}
		return v
	}
	tmax := s.MaxPatterns()
	ref := n(max(s.TMono, tmax))
	modular, penalty, benefit, scan2 := new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for _, m := range s.Modules() {
		iso := new(big.Int)
		if !m.PortsTesterAccessible {
			iso.Set(ports(m.Params))
		}
		for _, ch := range m.Children {
			iso.Add(iso, ports(ch.Params))
		}
		keep(iso)
		t, s2 := n(m.Patterns), new(big.Int).Mul(big.NewInt(2), n(m.ScanCells))
		keep(new(big.Int).Add(s2, iso)) // the Eq. 4 frame, read even at T = 0
		keep(modular.Add(modular, new(big.Int).Mul(t, new(big.Int).Add(s2, iso))))
		penalty.Add(penalty, new(big.Int).Mul(t, iso))
		keep(benefit.Add(benefit, new(big.Int).Mul(new(big.Int).Sub(ref, t), s2)))
		keep(scan2.Add(scan2, s2))
	}
	top := keep(ports(s.Top.Params))
	frame := keep(new(big.Int).Add(top, scan2))
	keep(new(big.Int).Add(keep(new(big.Int).Mul(frame, ref)), penalty))
	mono := new(big.Int)
	if s.TMono > 0 {
		mono.Mul(frame, n(s.TMono))
	}
	return exact{
		volumes: [6]*big.Int{new(big.Int).Mul(frame, n(tmax)), mono, modular, penalty, benefit, new(big.Int).Mul(top, ref)},
		largest: largest,
	}
}

// clone deep-copies a profile so a relation can rewrite it freely.
func clone(s *core.SOC) *core.SOC {
	var cp func(m *core.Module) *core.Module
	cp = func(m *core.Module) *core.Module {
		c := *m
		c.Children = make([]*core.Module, len(m.Children))
		for i, ch := range m.Children {
			c.Children[i] = cp(ch)
		}
		return &c
	}
	return &core.SOC{Name: s.Name, Top: cp(s.Top), TMono: s.TMono}
}
