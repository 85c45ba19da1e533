package faultsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// loadBitwise is the reference for Program.Load: the bit-at-a-time loop
// the kernel packed patterns with before the word-parallel rewrite. It
// clears the pseudo-input words, sets bit k of one when pattern k holds
// logic.One there, and returns the valid-pattern mask. Every other word
// keeps its value.
func loadBitwise(p *Program, words []uint64, batch []logic.Cube) uint64 {
	if len(batch) == 0 || len(batch) > 64 {
		panic(fmt.Sprintf("faultsim: Program.Load batch size %d out of range 1..64", len(batch)))
	}
	for _, id := range p.ppis {
		words[id] = 0
	}
	for k, cube := range batch {
		if len(cube) != len(p.ppis) {
			panic(fmt.Sprintf("faultsim: pattern %d length %d != %d pseudo inputs", k, len(cube), len(p.ppis)))
		}
		bit := uint64(1) << uint(k)
		for i, id := range p.ppis {
			if cube[i] == logic.One {
				words[id] |= bit
			}
		}
	}
	if len(batch) >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(len(batch))) - 1
}

// wideCircuit builds a circuit with width pseudo inputs whose gate IDs are
// scattered: every fourth pseudo input is a DFF, and each pseudo input is
// followed by an inverter, so Load must honour the ppi-to-gate mapping.
func wideCircuit(t testing.TB, width int) *netlist.Circuit { return buildWide(t, width, false) }

// buildWide builds wideCircuit, with a dangling AND gate named sink that
// reads every pseudo input when sink is set.
func buildWide(t testing.TB, width int, sink bool) *netlist.Circuit {
	t.Helper()
	c := netlist.New(fmt.Sprintf("wide%d", width))
	var last netlist.GateID
	var srcs []netlist.GateID
	for i := 0; i < width; i++ {
		var src netlist.GateID
		if i%4 == 3 {
			src = c.MustAddGate(fmt.Sprintf("ff%d", i), netlist.DFF, last)
		} else {
			src = c.MustAddGate(fmt.Sprintf("in%d", i), netlist.Input)
		}
		srcs = append(srcs, src)
		last = c.MustAddGate(fmt.Sprintf("n%d", i), netlist.Not, src)
	}
	if sink {
		c.MustAddGate("sink", netlist.And, srcs...)
	}
	if err := c.MarkOutput(last); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

// byteCubes returns n cubes of the given width holding arbitrary bytes:
// mostly 0 and 1, but every value 0–255 occurs.
func byteCubes(r *rand.Rand, width, n int) []logic.Cube {
	out := make([]logic.Cube, n)
	for k := range out {
		cube := make(logic.Cube, width)
		for i := range cube {
			if r.Intn(4) == 0 {
				cube[i] = logic.V(r.Intn(256))
			} else {
				cube[i] = logic.V(r.Intn(2))
			}
		}
		out[k] = cube
	}
	return out
}

// loadWords packs batch with Load and scatters the dense words over the
// pseudo inputs' gates in words, as an engine does, returning the mask.
func loadWords(p *Program, words []uint64, batch []logic.Cube) uint64 {
	dense := make([]uint64, len(p.ppis))
	mask := p.Load(dense, nil, batch)
	for i, id := range p.ppis {
		words[id] = dense[i]
	}
	return mask
}

// randomGroups returns nil (every group) or a mask over the groups of
// eight of width pseudo inputs: none, all, about half or about one in
// eight of them, bits past the last group set or not.
func randomGroups(r *rand.Rand, width int) []uint64 {
	kind := r.Intn(5)
	if kind == 0 {
		return nil
	}
	groups := make([]uint64, (width+511)/512)
	for i := range groups {
		switch kind {
		case 2:
			groups[i] = ^uint64(0)
		case 3:
			groups[i] = r.Uint64()
		case 4:
			groups[i] = r.Uint64() & r.Uint64() & r.Uint64()
		}
	}
	return groups
}

// inGroups reports whether groups selects pseudo input i (nil: all).
func inGroups(groups []uint64, i int) bool {
	return groups == nil || groups[i>>9]>>uint(i>>3&63)&1 != 0
}

// checkLoad runs Load over groups into a garbage-filled dense array and
// the reference into a gate-indexed one, and fails on any difference in
// the mask or in a selected word: dense word i of a selected group must
// equal the reference's word of pseudo input i. Every other word, those
// past the pseudo inputs included, must come back unchanged.
func checkLoad(t *testing.T, r *rand.Rand, p *Program, groups []uint64, batch []logic.Cube) {
	t.Helper()
	got := make([]uint64, len(p.ppis)+64)
	for i := range got {
		got[i] = r.Uint64()
	}
	before := append([]uint64(nil), got...)
	want := make([]uint64, p.c.NumGates())
	gm, wm := p.Load(got, groups, batch), loadBitwise(p, want, batch)
	if gm != wm {
		t.Fatalf("width %d, %d patterns: mask %x, reference %x", len(p.ppis), len(batch), gm, wm)
	}
	for i, id := range p.ppis {
		if inGroups(groups, i) && got[i] != want[id] {
			t.Fatalf("width %d, %d patterns, groups %x, pseudo input %d: word %x, reference %x",
				len(p.ppis), len(batch), groups, i, got[i], want[id])
		}
	}
	for i, w := range before {
		if (i >= len(p.ppis) || !inGroups(groups, i)) && got[i] != w {
			t.Fatalf("width %d, %d patterns, groups %x: Load wrote word %d outside the selected pseudo inputs",
				len(p.ppis), len(batch), groups, i)
		}
	}
}

// panicMessage runs f and returns what it panicked with, or nil.
func panicMessage(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// TestLoadMatchesBitwise holds the word-parallel Load to the bit-at-a-time
// reference: every batch size 1–64 at pseudo-input widths 1–130, around
// 512, and the live frames (700 for s13207, 1532 for SOC2-flat), over
// arbitrary byte values, all-binary cubes and garbage-filled dense words,
// with every group selected and with random group masks; only the
// selected pseudo inputs' words may change. Both panics must fire with the
// reference's messages.
func TestLoadMatchesBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var widths []int
	for w := 1; w <= 130; w++ {
		widths = append(widths, w)
	}
	widths = append(widths, 511, 512, 513, 700, 1532)
	for _, w := range widths {
		p := Compile(wideCircuit(t, w))
		cubes := byteCubes(r, w, 64)
		binary := randomPatterns(r, w, 64)
		for n := 1; n <= 64; n++ {
			off := r.Intn(64 - n + 1)
			checkLoad(t, r, p, nil, cubes[off:off+n])
			checkLoad(t, r, p, randomGroups(r, w), cubes[off:off+n])
			checkLoad(t, r, p, randomGroups(r, w), binary[off:off+n])
		}
	}

	p := Compile(wideCircuit(t, 9))
	words := make([]uint64, p.c.NumGates())
	cubes := byteCubes(r, 9, 65)
	bad := append(append([]logic.Cube(nil), cubes[:5]...), make(logic.Cube, 8))
	for _, batch := range [][]logic.Cube{nil, cubes, bad} {
		got := panicMessage(func() { p.Load(make([]uint64, len(p.ppis)), nil, batch) })
		want := panicMessage(func() { loadBitwise(p, words, batch) })
		if got == nil || got != want {
			t.Fatalf("%d patterns: Load panicked with %v, reference with %v", len(batch), got, want)
		}
	}
}

// FuzzLoad cross-checks Load against the bit-at-a-time reference on
// arbitrary widths, batch sizes, byte values and group masks (nil among
// them), over garbage-filled dense words of which only the selected
// pseudo inputs' words may change.
func FuzzLoad(f *testing.F) {
	f.Add(uint16(1), uint8(1), int64(1), []byte{1})
	f.Add(uint16(8), uint8(64), int64(2), []byte{0, 1, 2, 3, 4, 255})
	f.Add(uint16(700), uint8(63), int64(3), []byte{1, 1, 0, 0x81})
	f.Add(uint16(1532), uint8(7), int64(4), []byte{})
	f.Fuzz(func(t *testing.T, width uint16, nPat uint8, seed int64, data []byte) {
		w := 1 + int(width)%1600
		n := 1 + int(nPat)%64
		r := rand.New(rand.NewSource(seed))
		batch := make([]logic.Cube, n)
		for k := range batch {
			cube := make(logic.Cube, w)
			for i := range cube {
				cube[i] = logic.V(r.Intn(2))
				if len(data) > 0 {
					cube[i] ^= logic.V(data[(k*w+i)%len(data)])
				}
			}
			batch[k] = cube
		}
		checkLoad(t, r, Compile(wideCircuit(t, w)), randomGroups(r, w), batch)
	})
}

// TestLoadAndApplyAllocateNothing: packing a batch, applying a 64-pattern
// batch and queueing and withdrawing a cube on an uninstrumented engine
// allocate nothing, Apply also when the batch drops faults and so
// recomputes the live region. A warm serial Apply over several pack-ahead
// chunks allocates nothing either: it packs each batch inline.
func TestLoadAndApplyAllocateNothing(t *testing.T) {
	c := standinCircuit(t, "s1423")
	r := rand.New(rand.NewSource(9))
	patterns := randomPatterns(r, len(c.PseudoInputs()), 64*8)
	e := NewEngine(c, faults.CollapsedUniverse(c))
	e.Apply(patterns[:64]) // grow the event buckets once

	if a := testing.AllocsPerRun(20, func() { e.prog.Load(e.packed, e.groups, patterns[:64]) }); a != 0 {
		t.Errorf("Program.Load: %v allocs per run, want 0", a)
	}
	next, recomputed := 64, 0
	if a := testing.AllocsPerRun(5, func() {
		if e.regionStale && next > 64 {
			recomputed++ // a measured run (not the warm-up) recomputes the region
		}
		e.Apply(patterns[next : next+64])
		next += 64
	}); a != 0 {
		t.Errorf("uninstrumented Apply of 64 patterns: %v allocs per run, want 0", a)
	}
	if recomputed == 0 {
		t.Fatal("no measured Apply recomputed the live region")
	}
	if len(e.remaining) == 0 {
		t.Fatal("every fault dropped: the Apply runs measured no detection work")
	}

	e.Queue(patterns[0]) // allocate the pending batch once
	e.Queue(patterns[1])
	if a := testing.AllocsPerRun(20, func() {
		e.Queue(patterns[next])
		e.Unqueue()
	}); a != 0 {
		t.Errorf("warm Queue and Unqueue: %v allocs per run, want 0", a)
	}

	long := randomPatterns(r, len(c.PseudoInputs()), 2*packChunk*wordBits+17)
	serial := NewEngine(c, faults.CollapsedUniverse(c))
	serial.Apply(long) // warm
	if a := testing.AllocsPerRun(3, func() { serial.Apply(long) }); a != 0 {
		t.Errorf("warm serial Apply of %d patterns: %v allocs per run, want 0", len(long), a)
	}
	if len(serial.remaining) == 0 {
		t.Fatal("every fault dropped: the long Apply runs measured no detection work")
	}
}

// streamCubes returns fully specified cubes of the given width, distinct
// and together at least size bytes, in one backing array.
func streamCubes(r *rand.Rand, width, size int) []logic.Cube {
	n := (size + width - 1) / width
	n = (n + 63) &^ 63
	vals := make([]logic.V, n*width)
	for i := 0; i < len(vals); i += 64 {
		bits := r.Uint64()
		for j := i; j < min(i+64, len(vals)); j++ {
			vals[j] = logic.V(bits & 1)
			bits >>= 1
		}
	}
	out := make([]logic.Cube, n)
	for k := range out {
		out[k] = logic.Cube(vals[k*width : (k+1)*width : (k+1)*width])
	}
	return out
}

// BenchmarkProgramLoad packs 64-pattern batches at the pseudo-input
// widths of the live frames: s13207 (700) and SOC2-flat (1532). The
// cached cases repack one batch that stays in cache; the streaming case
// walks 64 MiB of distinct cubes, as a grading pass does, so the order in
// which Load reads the cubes shows. Every case packs every group of eight
// pseudo inputs but the half case, which packs every other one, as a
// live region that reads half of them would.
func BenchmarkProgramLoad(b *testing.B) {
	const streamBytes = 64 << 20
	for _, tc := range []struct {
		name   string
		width  int
		stream bool
		half   bool
	}{
		{"s13207", 700, false, false},
		{"SOC2-flat", 1532, false, false},
		{"SOC2-flat/stream64MiB", 1532, true, false},
		{"SOC2-flat/half", 1532, false, true},
	} {
		p := Compile(wideCircuit(b, tc.width))
		r := rand.New(rand.NewSource(1))
		var cubes []logic.Cube
		if tc.stream {
			cubes = streamCubes(r, tc.width, streamBytes)
		} else {
			cubes = randomPatterns(r, tc.width, 64)
		}
		var groups []uint64
		if tc.half {
			groups = make([]uint64, (tc.width+511)/512)
			for i := range groups {
				groups[i] = 0x5555555555555555
			}
		}
		dense := make([]uint64, len(p.ppis))
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(64 * tc.width))
			b.ReportAllocs()
			off := 0
			for i := 0; i < b.N; i++ {
				p.Load(dense, groups, cubes[off:off+64])
				if off += 64; off == len(cubes) {
					off = 0
				}
			}
		})
	}
}
