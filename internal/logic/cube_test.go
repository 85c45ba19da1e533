package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randCube(r *rand.Rand, n int) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = []V{Zero, One, X}[r.Intn(3)]
	}
	return c
}

func TestNewCubeIsAllX(t *testing.T) {
	c := NewCube(7)
	if len(c) != 7 {
		t.Fatalf("len = %d, want 7", len(c))
	}
	for i, v := range c {
		if v != X {
			t.Errorf("position %d = %v, want X", i, v)
		}
	}
	if c.Specified() != 0 {
		t.Error("fresh cube should be fully unspecified")
	}
}

func TestParseAndString(t *testing.T) {
	c, ok := ParseCube("01X-x1")
	if !ok {
		t.Fatal("ParseCube failed")
	}
	if got := c.String(); got != "01XXX1" {
		t.Errorf("String = %q, want 01XXX1", got)
	}
	if _, ok := ParseCube("01Q"); ok {
		t.Error("ParseCube accepted invalid character")
	}
}

func TestSpecified(t *testing.T) {
	c, _ := ParseCube("01XX")
	if c.Specified() != 2 {
		t.Errorf("Specified = %d, want 2", c.Specified())
	}
}

func TestFill(t *testing.T) {
	c, _ := ParseCube("0X1X")
	got := c.Fill(func(i int) V { return One })
	if got.String() != "0111" {
		t.Errorf("Fill = %v, want 0111", got)
	}
	// Original must be untouched.
	if c.String() != "0X1X" {
		t.Error("Fill mutated the receiver")
	}
	// Non-binary fill values coerce to Zero.
	got = c.Fill(func(i int) V { return X })
	if got.String() != "0010" {
		t.Errorf("Fill with X = %v, want 0010", got)
	}
	if got.Specified() != len(got) {
		t.Error("filled cube must be fully specified")
	}
}

func TestFillPreservesSpecifiedBitsProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randCube(r, 20)
		f := c.Fill(func(i int) V { return FromBool(r.Intn(2) == 1) })
		for i, v := range c {
			if v.Binary() && f[i] != v {
				return false
			}
		}
		return f.Specified() == len(f)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
