package atpg

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netlist"
)

// resultsIdentical asserts every externally observable field of two ATPG
// results matches: final patterns, raw cubes, per-fault outcomes, and all
// accounting. This is the "bit-identical" bar the parallel layer must clear.
func resultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !patternsEqual(a.Patterns, b.Patterns) {
		t.Fatalf("%s: patterns differ (%d vs %d)", label, len(a.Patterns), len(b.Patterns))
	}
	if !patternsEqual(a.Cubes, b.Cubes) {
		t.Fatalf("%s: raw cubes differ (%d vs %d)", label, len(a.Cubes), len(b.Cubes))
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: outcome counts differ (%d vs %d)", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("%s: outcome %d differs: %+v vs %+v", label, i, a.Outcomes[i], b.Outcomes[i])
		}
	}
	if a.NumFaults != b.NumFaults || a.NumDetected != b.NumDetected ||
		a.NumRedundant != b.NumRedundant || a.NumAborted != b.NumAborted ||
		a.Incomplete != b.Incomplete ||
		a.Coverage != b.Coverage || a.EffectiveCoverage != b.EffectiveCoverage {
		t.Fatalf("%s: accounting differs:\n  a: %+v\n  b: %+v", label, a, b)
	}
}

func determinismCircuits(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	return map[string]*netlist.Circuit{
		"c17":  mustParse(t, "c17", c17Bench),
		"s713": standin(t, "s713"),
		"s953": standin(t, "s953"),
	}
}

// TestGenerateWorkersBitIdentical is the ATPG half of the determinism
// guarantee: Workers=1 and Workers=8 (and intermediates) produce the same
// patterns, cubes, outcomes, and accounting on combinational and
// sequential-style circuits.
func TestGenerateWorkersBitIdentical(t *testing.T) {
	for name, c := range determinismCircuits(t) {
		t.Run(name, func(t *testing.T) {
			serial := DefaultOptions()
			serial.Workers = 1
			want := Generate(c, serial)
			for _, w := range []int{2, 4, 8} {
				opts := DefaultOptions()
				opts.Workers = w
				got := Generate(c, opts)
				resultsIdentical(t, name, got, want)
			}
		})
	}
}

// TestCheckpointBytesIdenticalAcrossWorkers runs the same checkpointed
// generation at several worker counts and requires the checkpoint files be
// byte-for-byte equal — the worker count is an execution detail, never
// persisted state.
func TestCheckpointBytesIdenticalAcrossWorkers(t *testing.T) {
	c := standin(t, "s953")
	read := func(w int) []byte {
		path := filepath.Join(t.TempDir(), "atpg.ckpt")
		opts := DefaultOptions()
		opts.Workers = w
		opts.Checkpoint = &CheckpointConfig{Path: path, Every: 8}
		if _, err := GenerateContext(context.Background(), c, opts); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return data
	}
	want := read(1)
	for _, w := range []int{4, 8} {
		if got := read(w); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d checkpoint differs from serial (%d vs %d bytes)", w, len(got), len(want))
		}
	}
}

// TestCheckpointCrossWorkerResume proves checkpoints are interchangeable
// across worker counts: a run interrupted under Workers=8 resumes under
// Workers=1 (and vice versa) and still reproduces the uninterrupted serial
// run exactly.
func TestCheckpointCrossWorkerResume(t *testing.T) {
	c := standin(t, "s953")
	serial := DefaultOptions()
	serial.Workers = 1
	full, err := GenerateContext(context.Background(), c, serial)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                string
		interruptW, resumeW int
	}{
		{"parallel-then-parallel", 8, 8},
		{"parallel-then-serial", 8, 1},
		{"serial-then-parallel", 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "atpg.ckpt")
			opts := DefaultOptions()
			opts.Workers = tc.interruptW
			opts.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
			part, err := GenerateContext(cancelAfter(10), c, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupt run: %v", err)
			}
			if !part.Incomplete || len(part.Cubes) == len(full.Cubes) {
				t.Fatalf("interrupted run was not actually partial (%d cubes vs %d)", len(part.Cubes), len(full.Cubes))
			}

			opts.Workers = tc.resumeW
			opts.Checkpoint.Resume = true
			resumed, err := GenerateContext(context.Background(), c, opts)
			if err != nil {
				t.Fatal(err)
			}
			resultsIdentical(t, tc.name, resumed, full)
		})
	}
}

// TestCacheKeyIdenticalAcrossWorkers covers the serving layer's determinism
// dependency: socd's content-addressed cache keys an ATPG artifact by
// OptionsHash and stores EncodeSummary bytes. Both must be invariant under
// the worker count (and therefore under the PPSFP kernel's sharding), or a
// warm hit computed at -workers=8 could differ from a cold run at
// -workers=1.
func TestCacheKeyIdenticalAcrossWorkers(t *testing.T) {
	c := standin(t, "s953")
	n := NumFaultsFor(c)
	var wantHash string
	var wantBytes []byte
	for i, w := range []int{1, 2, 4, 8} {
		opts := DefaultOptions()
		opts.Workers = w
		hash := OptionsHash(c, n, opts)
		res := Generate(c, opts)
		enc, err := EncodeSummary(res.Summary("s953"))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			wantHash, wantBytes = hash, enc
			continue
		}
		if hash != wantHash {
			t.Fatalf("workers=%d: options hash %s differs from serial %s", w, hash, wantHash)
		}
		if !bytes.Equal(enc, wantBytes) {
			t.Fatalf("workers=%d: summary bytes differ from serial (%d vs %d bytes)", w, len(enc), len(wantBytes))
		}
	}
}
