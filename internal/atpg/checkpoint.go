package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/runctl"
)

// FPFault is the failpoint name hit once per targeted fault in the main
// generation loop. Tests arm it (runctl.ArmPanic) to simulate an internal
// failure at the Nth fault and exercise the panic boundary; an armed error
// is promoted to a panic for the same reason.
const FPFault = "atpg.fault"

// ckptVersion is bumped whenever the checkpoint layout or the meaning of
// the resumed state changes; a mismatch rejects the file instead of
// resuming into silent corruption. v3 widened the outcome status space
// with ProvedRedundant (the SAT redundancy prover's verdict), so v2 files
// — whose Aborted accounting the settled flow supersedes — are refused.
const (
	ckptVersion = 3
	ckptTool    = "atpg"
)

// CheckpointConfig enables periodic checkpointing of the main generation
// loop. A checkpoint captures everything the loop's continuation depends
// on — kept cubes, per-fault verdicts and the RNG position — so a resumed
// run replays the exact computation an uninterrupted run would have
// performed and produces bit-for-bit identical patterns.
type CheckpointConfig struct {
	// Path is the checkpoint file. Writes are atomic (temp + rename): a
	// crash mid-write leaves the previous complete checkpoint in place.
	Path string
	// Every is the number of targeted faults between checkpoint writes;
	// zero means 64. Smaller loses less work on a crash, larger
	// checkpoints less often.
	Every int
	// Resume loads Path before generating and continues from it. A
	// missing file starts a fresh run; a file whose version or options
	// hash (circuit structure, fault count, all generation options) does
	// not match is rejected with a CheckpointError rather than resumed.
	Resume bool
}

func (c *CheckpointConfig) every() int {
	if c.Every > 0 {
		return c.Every
	}
	return 64
}

// ckptOutcome is one per-fault verdict in serialized form.
type ckptOutcome struct {
	Gate   int   `json:"g"`
	Pin    int32 `json:"p"`
	Stuck  uint8 `json:"v"`
	Status uint8 `json:"s"`
	// Backtracks records the search effort behind the verdict (v2+).
	Backtracks int `json:"b"`
}

// ckptState is the versioned on-disk checkpoint. Cubes hold every kept
// cube (random-phase survivors plus PODEM cubes, in commit order) as
// 0/1/X strings; Outcomes hold the verdicts recorded so far, in order.
// RandDraws is how many RNG draws the random bootstrap consumed, so a
// resume can fast-forward the seeded RNG to the identical position and
// the final X-fill stays bit-identical.
type ckptState struct {
	Version     int           `json:"version"`
	Tool        string        `json:"tool"`
	Circuit     string        `json:"circuit"`
	OptionsHash string        `json:"options_hash"`
	RandDraws   int64         `json:"rand_draws"`
	Complete    bool          `json:"complete"` // main loop finished
	Cubes       []string      `json:"cubes"`
	Outcomes    []ckptOutcome `json:"outcomes"`
}

// optionsHash fingerprints everything a resumed run must share with the
// interrupted one for the continuation to be exact: the circuit structure
// (its canonical .bench serialization), the fault-list length, and every
// generation option that steers the search.
func optionsHash(c *netlist.Circuit, nFaults int, opts Options) string {
	h := sha256.New()
	io.WriteString(h, netlist.BenchString(c))
	// budget=0 stands for the removed per-fault time budget: old hashes match.
	fmt.Fprintf(h, "|v%d|faults=%d|bt=%d|rand=%d|compact=%t|dc=%t|dt=%d|passes=%d|seed=%d|budget=0",
		ckptVersion, nFaults, opts.BacktrackLimit, opts.RandomPatterns, opts.Compact,
		opts.DynamicCompact, opts.DynamicTargets, opts.Passes, opts.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotCkpt captures the loop state into a serializable checkpoint.
func snapshotCkpt(circuit, hash string, randDraws int64, complete bool,
	cubes []logic.Cube, outcomes []Outcome) *ckptState {
	st := &ckptState{
		Version:     ckptVersion,
		Tool:        ckptTool,
		Circuit:     circuit,
		OptionsHash: hash,
		RandDraws:   randDraws,
		Complete:    complete,
		Cubes:       make([]string, len(cubes)),
		Outcomes:    make([]ckptOutcome, len(outcomes)),
	}
	for i, c := range cubes {
		st.Cubes[i] = c.String()
	}
	for i, o := range outcomes {
		st.Outcomes[i] = ckptOutcome{
			Gate:       int(o.Fault.Gate),
			Pin:        o.Fault.Pin,
			Stuck:      uint8(o.Fault.Stuck),
			Status:     uint8(o.Status),
			Backtracks: o.Backtracks,
		}
	}
	return st
}

// save writes the checkpoint atomically.
func (st *ckptState) save(path string) error {
	data, err := json.Marshal(st)
	if err != nil {
		return &runctl.CheckpointError{Path: path, Op: "write", Err: err}
	}
	return runctl.WriteFileAtomic(path, data)
}

// loadCheckpoint reads and validates a checkpoint. Callers distinguish a
// missing file (errors.Is(err, fs.ErrNotExist): start fresh) from a
// corrupt or mismatched one (refuse to resume).
func loadCheckpoint(path, wantHash string) (*ckptState, error) {
	data, err := runctl.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &ckptState{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, runctl.ValidateError(path, "corrupt checkpoint: %v", err)
	}
	if st.Tool != ckptTool || st.Version != ckptVersion {
		return nil, runctl.ValidateError(path, "checkpoint is %s v%d, want %s v%d",
			st.Tool, st.Version, ckptTool, ckptVersion)
	}
	if st.OptionsHash != wantHash {
		return nil, runctl.ValidateError(path,
			"options hash mismatch (checkpoint %.12s…, run %.12s…): circuit or options differ from the interrupted run",
			st.OptionsHash, wantHash)
	}
	return st, nil
}

// restore decodes the checkpoint back into live loop state: the kept
// cubes, the recorded outcomes, and the failed-fault map the target
// selection skips.
func (st *ckptState) restore(path string, width int) (cubes []logic.Cube, outcomes []Outcome, failed map[faults.Fault]Status, err error) {
	cubes = make([]logic.Cube, len(st.Cubes))
	for i, s := range st.Cubes {
		c, ok := logic.ParseCube(s)
		if !ok || len(c) != width {
			return nil, nil, nil, runctl.ValidateError(path, "cube %d malformed (%q, want width %d)", i, s, width)
		}
		cubes[i] = c
	}
	outcomes = make([]Outcome, len(st.Outcomes))
	failed = make(map[faults.Fault]Status)
	for i, o := range st.Outcomes {
		f := faults.Fault{Gate: netlist.GateID(o.Gate), Pin: o.Pin, Stuck: logic.V(o.Stuck)}
		s := Status(o.Status)
		if s > ProvedRedundant {
			return nil, nil, nil, runctl.ValidateError(path, "outcome %d has unknown status %d", i, o.Status)
		}
		outcomes[i] = Outcome{Fault: f, Status: s, Backtracks: o.Backtracks}
		if s == Redundant || s == Aborted || s == ProvedRedundant {
			failed[f] = s
		}
	}
	return cubes, outcomes, failed, nil
}
