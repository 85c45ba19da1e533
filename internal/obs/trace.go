package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// TraceContext is the request-scoped identity of one unit of work: the
// trace ID every event of the request shares, the span the event belongs
// to, and that span's parent ("" at the root). It lets a reader
// reassemble one job's admission → queue → worker → engine-phase
// lifecycle out of an interleaved multi-job trace. It travels in the
// sink, not the context: a collector built over AnnotateTrace stamps it
// on every event, so engine code emits into a trace without knowing it.
//
// IDs are deterministic: they are derived purely from the job key and a
// caller-owned logical sequence number — never from the wall clock or a
// random source — so identical request sequences produce identical trace
// and span IDs run after run, and a trace diff between two runs of the
// same workload is meaningful.
type TraceContext struct {
	Trace  string
	Span   string
	Parent string
}

// NewTrace derives the root context of a trace. key is the stable
// identity of the work (e.g. the content address of a job); seq is the
// caller's logical submission counter, which keeps two submissions of the
// same key distinguishable while staying reproducible across runs. The
// trace ID carries both: the sequence as a prefix, a key fingerprint as
// the suffix.
func NewTrace(key string, seq int64) TraceContext {
	trace := fmt.Sprintf("t%04x-%s", seq, shortHash("trace\x00"+key))
	return TraceContext{Trace: trace, Span: shortHash(trace + "\x00root")}
}

// Child derives the context of a named sub-span: same trace, the current
// span as parent, and a span ID that is a pure function of the position
// in the span tree — so the queue span of job N is the same ID every run.
func (tc TraceContext) Child(name string) TraceContext {
	return TraceContext{
		Trace:  tc.Trace,
		Parent: tc.Span,
		Span:   shortHash(tc.Trace + "\x00" + tc.Span + "\x00" + name),
	}
}

// shortHash is a 12-hex-digit SHA-256 prefix: collision-safe at trace
// scale, short enough to keep JSONL lines readable.
func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}

// AnnotateTrace wraps a sink so every event passing through it gains
// trailing "trace", "span" and (when non-empty) "parent" fields. Code
// emitting through a collector built over an annotated sink needs no
// trace awareness of its own — engine phase events inherit the identity
// of the span that ran them. A nil sink annotates to nil.
func AnnotateTrace(s Sink, tc TraceContext) Sink {
	if s == nil {
		return nil
	}
	return &traceSink{s: s, tc: tc}
}

type traceSink struct {
	s  Sink
	tc TraceContext
}

// Emit forwards the event with the trace identity appended. The incoming
// field slice is never mutated in place: emitters may reuse their slices.
func (t *traceSink) Emit(e Event) {
	fs := make([]Field, 0, len(e.Fields)+3)
	fs = append(fs, e.Fields...)
	fs = append(fs, F("trace", t.tc.Trace), F("span", t.tc.Span))
	if t.tc.Parent != "" {
		fs = append(fs, F("parent", t.tc.Parent))
	}
	e.Fields = fs
	t.s.Emit(e)
}

// Err reports the wrapped sink's first error.
func (t *traceSink) Err() error { return t.s.Err() }
