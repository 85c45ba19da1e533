package logic

import "math/bits"

// A cube holds one byte per value, but static compaction and fault
// simulation want bits. Packed is the bit form: for every 64 positions, a
// care word, set where the value is binary (0 or 1), and a one word, set
// where it is One. Every other value (X, D, D̄ or an invalid byte) sets
// neither bit, so it loads as 0. This file is the one place where values
// become bits.
//
// Within a word, position 8i+j sits at bit 8j+i (BitIndex). Eight values
// read as one machine word leave their flags in the low bit of each byte,
// so the flags of a word's eight groups merge by shifts alone. Compatible
// and Merge are bitwise and do not care about the order.

// Packed is a cube packed into Words(len(cube)) care and one words.
type Packed struct {
	care, one []uint64
}

// Words returns the number of words that pack n positions.
func Words(n int) int { return (n + 63) / 64 }

// BitIndex maps a position within a word (0–63) to its bit, and a bit
// back to its position: it swaps the low and the high three bits.
func BitIndex(i int) int { return (i&7)<<3 | i>>3&7 }

// Pack returns the packed form of c, in one allocation.
func Pack(c Cube) Packed {
	n := Words(len(c))
	w := make([]uint64, 2*n)
	p := Packed{care: w[:n:n], one: w[n:]}
	for k := range p.care {
		p.care[k] = packWord(c.word(k), 0, lsb*uint64(Zero^One))
		p.one[k] = c.OneWord(k)
	}
	return p
}

// OneWord returns word k of c's one words: bit BitIndex(i) is set exactly
// when position 64k+i holds One.
func (c Cube) OneWord(k int) uint64 { return packWord(c.word(k), lsb*uint64(One), 0) }

// word returns the up to 64 positions word k packs.
func (c Cube) word(k int) []V { return c[k*64 : min(k*64+64, len(c))] }

// Compatible reports whether p and q can be merged: no position that both
// care about holds different values in them (the paper's Section 3 rule).
// p and q pack cubes of one width.
func (p Packed) Compatible(q Packed) bool {
	for k, care := range p.care {
		if care&q.care[k]&(p.one[k]^q.one[k]) != 0 {
			return false
		}
	}
	return true
}

// Merge merges the compatible q into p in place: every position q cares
// about takes q's value.
func (p Packed) Merge(q Packed) {
	for k := range p.care {
		p.care[k] |= q.care[k]
		p.one[k] |= q.one[k]
	}
}

// Unpack writes every position p cares about into c, as Zero or One, and
// leaves the other positions of c as they are. c has the width p packs.
func (p Packed) Unpack(c Cube) {
	for k, m := range p.care {
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			c[k*64+BitIndex(b)] = FromBool(p.one[k]>>uint(b)&1 == 1)
		}
	}
}

// PackLanes is Pack turned on its side, for 1 to 64 cubes of len(dst)
// positions: word i of dst gets bit k set exactly when cubes[k][i] is
// One. It writes the words of the groups of eight positions that groups
// selects, group g (positions 8g to 8g+7) by bit g%64 of groups[g/64], or
// of every group when groups is nil, and no other word of dst.
//
// The cubes are read eight at a time, each from start to end. A 64-bit
// load takes one cube's values of one group; the eight cubes' loads,
// shifted by their lane and ORed, give the group's byte plane: byte j
// holds their bits of position 8g+j. Cube block c parks its plane in
// dst[8g+c], and one 8×8 byte transpose turns a group's eight planes into
// its words. A short last block repeats its last cube, and a block past it
// the last cube, with the repeats' lanes masked off. The low bit of a 0 or
// 1 byte is its one bit; a batch whose loads hold any other byte is packed
// again, testing each byte for One, so X, D and invalid bytes load as 0.
func PackLanes(dst []uint64, cubes []Cube, groups []uint64) {
	full, last := len(dst)&^7, len(cubes)-1
	for exact := false; ; exact = true {
		var all uint64
		for k := 0; k < 64; k += 8 {
			keep := uint64(lsb) * (1<<uint(min(max(last-k+1, 0), 8)) - 1)
			// One length for all eight lets one bounds check serve them.
			s0, s1, s2, s3 := cubes[min(k, last)][:full], cubes[min(k+1, last)][:full], cubes[min(k+2, last)][:full], cubes[min(k+3, last)][:full]
			s4, s5, s6, s7 := cubes[min(k+4, last)][:full], cubes[min(k+5, last)][:full], cubes[min(k+6, last)][:full], cubes[min(k+7, last)][:full]
			for o := 0; o+8 <= full; o += 8 {
				if !selected(groups, o>>3) {
					continue
				}
				w0, w1, w2, w3 := load8(s0, o), load8(s1, o), load8(s2, o), load8(s3, o)
				w4, w5, w6, w7 := load8(s4, o), load8(s5, o), load8(s6, o), load8(s7, o)
				all |= w0 | w1 | w2 | w3 | w4 | w5 | w6 | w7
				if exact {
					w0, w1, w2, w3 = one8(w0), one8(w1), one8(w2), one8(w3)
					w4, w5, w6, w7 = one8(w4), one8(w5), one8(w6), one8(w7)
				}
				dst[o+k>>3] = (w0 | w1<<1 | w2<<2 | w3<<3 | w4<<4 | w5<<5 | w6<<6 | w7<<7) & keep
			}
		}
		if exact || all&^lsb == 0 {
			break
		}
	}
	for o := 0; o < full; o += 8 {
		if selected(groups, o>>3) {
			transpose8((*[8]uint64)(dst[o : o+8]))
		}
	}
	for i := full; i < len(dst) && selected(groups, full>>3); i++ { // the short last group
		var w uint64
		for k, c := range cubes {
			w |= (uint64(c[i]^One) - 1) >> 63 << uint(k) // 1 exactly when c[i] is One
		}
		dst[i] = w
	}
}

// selected reports whether the group mask selects group g (nil: all).
func selected(groups []uint64, g int) bool {
	return groups == nil || groups[g>>6]>>uint(g&63)&1 != 0
}

// load8 packs the eight values of s from o on into one word, s[o+i] in
// byte i.
func load8(s []V, o int) uint64 {
	_ = s[o+7]
	return uint64(s[o]) | uint64(s[o+1])<<8 | uint64(s[o+2])<<16 | uint64(s[o+3])<<24 |
		uint64(s[o+4])<<32 | uint64(s[o+5])<<40 | uint64(s[o+6])<<48 | uint64(s[o+7])<<56
}

// one8 maps the eight bytes of x to the low bits of the same bytes: bit 8i
// is 1 exactly when byte i is One.
func one8(x uint64) uint64 { return zero8(x ^ lsb*uint64(One)) }

// transpose8 transposes the 8×8 byte matrix a in place (byte j of a[i] is
// row i, column j) in registers, by swapping blocks across the diagonal:
// 4×4 blocks of bytes, then 2×2, then single bytes.
func transpose8(a *[8]uint64) {
	const m32, m16, m8 = 0x00000000ffffffff, 0x0000ffff0000ffff, 0x00ff00ff00ff00ff
	r0, r1, r2, r3, r4, r5, r6, r7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	r0, r4 = swapBlocks(r0, r4, 32, m32)
	r1, r5 = swapBlocks(r1, r5, 32, m32)
	r2, r6 = swapBlocks(r2, r6, 32, m32)
	r3, r7 = swapBlocks(r3, r7, 32, m32)
	r0, r2 = swapBlocks(r0, r2, 16, m16)
	r1, r3 = swapBlocks(r1, r3, 16, m16)
	r4, r6 = swapBlocks(r4, r6, 16, m16)
	r5, r7 = swapBlocks(r5, r7, 16, m16)
	r0, r1 = swapBlocks(r0, r1, 8, m8)
	r2, r3 = swapBlocks(r2, r3, 8, m8)
	r4, r5 = swapBlocks(r4, r5, 8, m8)
	r6, r7 = swapBlocks(r6, r7, 8, m8)
	a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = r0, r1, r2, r3, r4, r5, r6, r7
}

// swapBlocks swaps the bits of x under m<<s with the bits of y under m.
func swapBlocks(x, y uint64, s uint, m uint64) (uint64, uint64) {
	t := (x>>s ^ y) & m
	return x ^ t<<s, y ^ t
}

// lsb has the low bit of every byte set.
const lsb = 0x0101010101010101

// allX pads a short word: X is neither a care nor a one value.
var allX = func() (a [64]V) {
	for i := range a {
		a[i] = X
	}
	return a
}()

// packWord maps up to 64 values to one word: bit BitIndex(i) is set
// exactly when v[i], with the bits of ign cleared, equals want (ign and
// want repeat one byte eight times). A value is binary exactly when it
// equals Zero with the bit Zero^One cleared, and One exactly when it
// equals One. There is no branch per value: each eight values are read as
// one word and tested at once.
func packWord(v []V, want, ign uint64) uint64 {
	var pad [64]V
	if len(v) < 64 {
		pad = allX
		copy(pad[:], v)
		v = pad[:]
	}
	a := (*[64]V)(v)
	f := func(o int) uint64 { return zero8((load8(a[:], o) ^ want) &^ ign) }
	return f(0) | f(8)<<1 | f(16)<<2 | f(24)<<3 | f(32)<<4 | f(40)<<5 | f(48)<<6 | f(56)<<7
}

// zero8 maps the eight bytes of x to the low bits of the same bytes: bit
// 8i is 1 exactly when byte i is zero.
func zero8(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	// A byte's top bit survives exactly when the byte is zero: adding low7
	// to its low seven bits carries into bit 7 iff any is set, and the OR
	// with x covers bit 7 itself. No carry crosses a byte.
	return ^(x&low7 + low7 | x) & (lsb << 7) >> 7
}
