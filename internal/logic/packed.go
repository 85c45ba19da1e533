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
// when position 64k+i holds One. A word of only Zero (0) and One (1)
// bytes, a short one padded with Zero (like X, no one bit), takes a fast
// path: each byte's low bit is its one bit. Any other byte, D (3) among
// them, sends the word through packWord.
func (c Cube) OneWord(k int) uint64 {
	v := c.word(k)
	var a *[64]V
	if len(v) == 64 {
		a = (*[64]V)(v)
	} else {
		var pad [64]V
		copy(pad[:], v)
		a = &pad
	}
	w0, w1, w2, w3 := word8(a[0:8]), word8(a[8:16]), word8(a[16:24]), word8(a[24:32])
	w4, w5, w6, w7 := word8(a[32:40]), word8(a[40:48]), word8(a[48:56]), word8(a[56:64])
	if (w0|w1|w2|w3|w4|w5|w6|w7)&^lsb == 0 {
		return w0 | w1<<1 | w2<<2 | w3<<3 | w4<<4 | w5<<5 | w6<<6 | w7<<7
	}
	return packWord(v, lsb*uint64(One), 0)
}

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
	f := func(o []V) uint64 { return zero8((word8(o) ^ want) &^ ign) }
	return f(a[0:8]) | f(a[8:16])<<1 | f(a[16:24])<<2 | f(a[24:32])<<3 |
		f(a[32:40])<<4 | f(a[40:48])<<5 | f(a[48:56])<<6 | f(a[56:64])<<7
}

// word8 packs eight values into one word, o[i] in byte i.
func word8(o []V) uint64 {
	_ = o[7]
	return uint64(o[0]) | uint64(o[1])<<8 | uint64(o[2])<<16 | uint64(o[3])<<24 |
		uint64(o[4])<<32 | uint64(o[5])<<40 | uint64(o[6])<<48 | uint64(o[7])<<56
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
