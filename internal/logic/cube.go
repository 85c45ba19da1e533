package logic

import "strings"

// Cube is a test cube: an assignment of 0, 1 and X (don't care) values to an
// ordered set of circuit inputs. Cubes are the unit of work for static
// compaction (Section 3 of the paper): two cubes may be merged into one test
// pattern exactly when none of their specified bits conflict.
//
// Only Zero, One and X are meaningful in a Cube; fault-effect values are
// never stored in cubes.
type Cube []V

// NewCube returns a cube of n all-X (fully unspecified) positions.
func NewCube(n int) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = X
	}
	return c
}

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube {
	d := make(Cube, len(c))
	copy(d, c)
	return d
}

// Specified returns the number of positions carrying a 0 or 1 (non-X) value.
func (c Cube) Specified() int {
	n := 0
	for _, v := range c {
		if v.Binary() {
			n++
		}
	}
	return n
}

// Fill returns a copy of c with every X replaced by the value produced by
// fill(i), where i is the bit position. It is used for X-filling compacted
// cubes into fully specified tester patterns.
func (c Cube) Fill(fill func(i int) V) Cube {
	d := c.Clone()
	for i, v := range d {
		if v == X {
			f := fill(i)
			if !f.Binary() {
				f = Zero
			}
			d[i] = f
		}
	}
	return d
}

// String renders the cube as a string of 0/1/X characters.
func (c Cube) String() string {
	var b strings.Builder
	b.Grow(len(c))
	for _, v := range c {
		b.WriteString(v.String())
	}
	return b.String()
}

// ParseCube parses a string of '0', '1', 'X'/'x'/'-' characters into a Cube.
// It returns false if any other character is present.
func ParseCube(s string) (Cube, bool) {
	c := make(Cube, 0, len(s))
	for _, r := range s {
		switch r {
		case '0':
			c = append(c, Zero)
		case '1':
			c = append(c, One)
		case 'X', 'x', '-':
			c = append(c, X)
		default:
			return nil, false
		}
	}
	return c, true
}
