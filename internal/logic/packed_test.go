package logic

import (
	"math/bits"
	"math/rand"
	"testing"
)

// unpacked returns the {0,1,X} cube p packs at width n.
func unpacked(p Packed, n int) Cube {
	c := NewCube(n)
	p.Unpack(c)
	return c
}

func TestCompatibleAndMerge(t *testing.T) {
	a, _ := ParseCube("0X1X")
	b, _ := ParseCube("X011")
	pa, pb := Pack(a), Pack(b)
	if !pa.Compatible(pb) {
		t.Fatal("cubes should be compatible")
	}
	pa.Merge(pb)
	if m := unpacked(pa, 4); m.String() != "0011" {
		t.Errorf("Merge = %v, want 0011", m)
	}
	conflict, _ := ParseCube("1X1X")
	if Pack(a).Compatible(Pack(conflict)) {
		t.Error("conflicting cubes reported compatible")
	}
}

// Property: compatibility is symmetric, and merging is commutative and
// keeps every specified bit of both cubes, at widths around one and two
// words.
func TestMergeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		n := []int{12, 64, 70, 128, 130}[i%5]
		a, b := randCube(r, n), randCube(r, n)
		for j := range b {
			if r.Intn(4) != 0 {
				b[j] = X // mostly X, so many pairs merge
			}
		}
		pa, pb := Pack(a), Pack(b)
		if pa.Compatible(pb) != pb.Compatible(pa) {
			t.Fatal("Compatible not symmetric")
		}
		if !pa.Compatible(pb) {
			continue
		}
		ab, ba := Pack(a), Pack(b)
		ab.Merge(pb)
		ba.Merge(pa)
		mab, mba := unpacked(ab, n), unpacked(ba, n)
		if mab.String() != mba.String() {
			t.Fatalf("Merge not commutative: %v vs %v", mab, mba)
		}
		for j := range mab {
			for _, v := range []V{a[j], b[j]} {
				if v.Binary() && mab[j] != v {
					t.Fatalf("merge of %v and %v lost position %d: %v", a, b, j, mab)
				}
			}
		}
	}
}

// FuzzPackCube holds the packer to the byte-wise definition over arbitrary
// bytes, every value 0–255 among them, at widths around 64 and 128: a
// position's care bit is set exactly when its value is Binary, and its one
// bit exactly when it is One, with no bit set past the width. Unpacking a
// packed {0,1,X} cube gives the cube back.
func FuzzPackCube(f *testing.F) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for _, w := range []uint8{0, 1, 8, 63, 64, 65, 127, 128, 129, 200} {
		f.Add(w, all)
	}
	f.Add(uint8(130), []byte{0, 1, 2, 3, 4})
	// All-binary words, full and short.
	for _, w := range []uint8{64, 128, 130} {
		f.Add(w, []byte{1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		n := int(width)
		c, tern := make(Cube, n), make(Cube, n)
		for i := range c {
			c[i], tern[i] = X, X
			if len(data) > 0 {
				b := data[i%len(data)]
				c[i], tern[i] = V(b), []V{Zero, One, X}[b%3]
			}
		}
		p := Pack(c)
		if len(p.care) != Words(n) || len(p.one) != Words(n) {
			t.Fatalf("width %d: %d care and %d one words, want %d", n, len(p.care), len(p.one), Words(n))
		}
		cares, ones := 0, 0
		for i, v := range c {
			k, b := i/64, uint(BitIndex(i%64))
			if care := p.care[k]>>b&1 == 1; care != v.Binary() {
				t.Fatalf("width %d position %d value %d: care bit %v", n, i, v, care)
			}
			if one := p.one[k]>>b&1 == 1; one != (v == One) {
				t.Fatalf("width %d position %d value %d: one bit %v", n, i, v, one)
			}
			if v.Binary() {
				cares++
			}
			if v == One {
				ones++
			}
		}
		gotCares, gotOnes := 0, 0
		for k := range p.care {
			gotCares += bits.OnesCount64(p.care[k])
			gotOnes += bits.OnesCount64(p.one[k])
		}
		if gotCares != cares || gotOnes != ones {
			t.Fatalf("width %d: %d care and %d one bits, want %d and %d", n, gotCares, gotOnes, cares, ones)
		}
		if back := unpacked(Pack(tern), n); back.String() != tern.String() {
			t.Fatalf("width %d: unpacked %v, packed %v", n, back, tern)
		}
	})
}

// oneWordBytewise is the byte-wise definition of word k of c's one words.
func oneWordBytewise(c Cube, k int) uint64 {
	var w uint64
	for i, v := range c.word(k) {
		if v == One {
			w |= 1 << uint(BitIndex(i))
		}
	}
	return w
}

// TestOneWordBinaryFastPath: OneWord and Pack on a word of binary values,
// and with a single other byte anywhere in it, must equal the byte-wise
// definition. Every byte value 2–255, D (3, low bit set) among them, at
// every one of the 64 positions of a full word and of the 37 of a short
// last word.
func TestOneWordBinaryFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for _, width := range []int{64, 64 + 37} {
		for round := 0; round < 4; round++ {
			c := make(Cube, width)
			for i := range c {
				c[i] = V(r.Intn(2))
			}
			k := Words(width) - 1
			if got, want := c.OneWord(k), oneWordBytewise(c, k); got != want {
				t.Fatalf("binary cube %v: OneWord(%d) %#x, byte-wise %#x", c, k, got, want)
			}
			var care uint64
			for i := range c.word(k) {
				care |= 1 << uint(BitIndex(i))
			}
			for pos := range c.word(k) {
				i := k*64 + pos
				old := c[i]
				for b := 2; b < 256; b++ {
					c[i] = V(b)
					want := oneWordBytewise(c, k)
					if got := c.OneWord(k); got != want {
						t.Fatalf("width %d, byte %d at position %d: OneWord %#x, byte-wise %#x", width, b, i, got, want)
					}
					p := Pack(c)
					if p.one[k] != want || p.care[k] != care&^(1<<uint(BitIndex(pos))) {
						t.Fatalf("width %d, byte %d at position %d: Pack one %#x care %#x", width, b, i, p.one[k], p.care[k])
					}
				}
				c[i] = old
			}
		}
	}
}
