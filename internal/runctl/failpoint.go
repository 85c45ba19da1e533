package runctl

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Fault injection ("failpoints"): named sites in production code call
// Hit(name); tests arm a site to fail or panic on its Nth hit. The
// default, disarmed state costs one atomic load per hit — no locks, no
// allocation — so instrumented hot paths stay clean in real runs.
//
// A trigger is one-shot: once it fires, the failpoint is disarmed. Hits
// before the Nth are counted and pass through untouched.

var (
	fpArmed atomic.Int32 // number of armed failpoints; 0 = fast path
	fpMu    sync.Mutex
	fps     = map[string]*failpoint{}
)

type failpoint struct {
	remaining int // hits left before triggering (1 = next hit fires)
	err       error
	panicVal  any
}

// Arm makes the nth subsequent Hit(name) return err (n = 1 means the very
// next hit). Arming replaces any previous arming of the same name.
func Arm(name string, nth int, err error) {
	armFailpoint(name, nth, &failpoint{err: err})
}

// ArmPanic makes the nth subsequent Hit(name) panic with value (n = 1
// means the very next hit).
func ArmPanic(name string, nth int, value any) {
	armFailpoint(name, nth, &failpoint{panicVal: value})
}

func armFailpoint(name string, nth int, fp *failpoint) {
	if nth < 1 {
		panic(fmt.Sprintf("runctl: Arm(%q, %d): nth must be >= 1", name, nth))
	}
	fp.remaining = nth
	fpMu.Lock()
	if _, existed := fps[name]; !existed {
		fpArmed.Add(1)
	}
	fps[name] = fp
	fpMu.Unlock()
}

// Disarm removes the failpoint for name, if armed.
func Disarm(name string) {
	fpMu.Lock()
	if _, ok := fps[name]; ok {
		delete(fps, name)
		fpArmed.Add(-1)
	}
	fpMu.Unlock()
}

// DisarmAll removes every armed failpoint. Tests defer it to avoid
// leaking injections across test cases.
func DisarmAll() {
	fpMu.Lock()
	for name := range fps {
		delete(fps, name)
	}
	fpArmed.Store(0)
	fpMu.Unlock()
}

// Hit is called by production code at an injection site. With nothing
// armed it returns nil after a single atomic load. With an armed
// failpoint for name, the Nth hit triggers: Hit panics (ArmPanic) or
// returns the armed error (Arm), then disarms itself.
func Hit(name string) error {
	if fpArmed.Load() == 0 {
		return nil
	}
	fpMu.Lock()
	fp, ok := fps[name]
	if !ok {
		fpMu.Unlock()
		return nil
	}
	fp.remaining--
	if fp.remaining > 0 {
		fpMu.Unlock()
		return nil
	}
	delete(fps, name)
	fpArmed.Add(-1)
	err, pv := fp.err, fp.panicVal
	fpMu.Unlock()
	if pv != nil {
		panic(pv)
	}
	return err
}
