package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNewTraceDeterministic is the identity contract: trace and span IDs
// are pure functions of (key, seq) — two runs of the same workload mint
// the same IDs, and neither the wall clock nor randomness can leak in.
func TestNewTraceDeterministic(t *testing.T) {
	a := NewTrace("atpg\x00deadbeef", 1)
	b := NewTrace("atpg\x00deadbeef", 1)
	if a != b {
		t.Errorf("same (key, seq) minted different contexts: %+v vs %+v", a, b)
	}
	if a.Trace == "" || a.Span == "" {
		t.Errorf("root context incomplete: %+v", a)
	}
	if a.Parent != "" {
		t.Errorf("root span has a parent: %+v", a)
	}
	// A different sequence number or key is a different trace.
	if c := NewTrace("atpg\x00deadbeef", 2); c.Trace == a.Trace {
		t.Error("seq not folded into the trace ID")
	}
	if c := NewTrace("tdv\x00deadbeef", 1); c.Trace == a.Trace {
		t.Error("key not folded into the trace ID")
	}
}

// TestChildSpans checks the span tree derivation: children share the
// trace, point at their parent, and are themselves deterministic.
func TestChildSpans(t *testing.T) {
	root := NewTrace("k", 7)
	q := root.Child("queue")
	if q.Trace != root.Trace {
		t.Errorf("child left the trace: %q vs %q", q.Trace, root.Trace)
	}
	if q.Parent != root.Span {
		t.Errorf("child parent = %q, want root span %q", q.Parent, root.Span)
	}
	if q.Span == root.Span {
		t.Error("child reused the root span ID")
	}
	if q2 := root.Child("queue"); q2 != q {
		t.Errorf("same child derivation differs: %+v vs %+v", q2, q)
	}
	if w := root.Child("work"); w.Span == q.Span {
		t.Error("differently named children collide")
	}
	// Grandchildren hang off the child, not the root.
	g := q.Child("phase")
	if g.Parent != q.Span {
		t.Errorf("grandchild parent = %q, want %q", g.Parent, q.Span)
	}
}

// TestAnnotateTraceFields checks every event through an annotated sink
// carries trace/span/parent fields in the JSONL rendering, and that the
// emitter's field slice is not mutated.
func TestAnnotateTraceFields(t *testing.T) {
	var buf bytes.Buffer
	tc := NewTrace("k", 1).Child("work")
	col := New(nil, AnnotateTrace(NewJSONLSink(&buf), tc))

	fields := []Field{F("fault", "g3 SA0")}
	col.Emit("atpg.fault", fields...)
	if len(fields) != 1 {
		t.Errorf("emitter's field slice mutated: %v", fields)
	}

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("trace line not JSON: %v\n%s", err, buf.Bytes())
	}
	if rec["trace"] != tc.Trace || rec["span"] != tc.Span || rec["parent"] != tc.Parent {
		t.Errorf("annotated line = %s, want trace=%q span=%q parent=%q",
			buf.Bytes(), tc.Trace, tc.Span, tc.Parent)
	}
	if rec["fault"] != "g3 SA0" {
		t.Errorf("original fields lost: %s", buf.Bytes())
	}

	// Root contexts have no parent field at all, rather than an empty one.
	buf.Reset()
	rootCol := New(nil, AnnotateTrace(NewJSONLSink(&buf), NewTrace("k", 1)))
	rootCol.Emit("srv.admit")
	if strings.Contains(buf.String(), `"parent"`) {
		t.Errorf("root event carries a parent field: %s", buf.String())
	}
	if nilSink := AnnotateTrace(nil, tc); nilSink != nil {
		t.Error("annotating a nil sink did not stay nil")
	}
}

// TestAppendJSONMatchesJSONLSink checks the exported renderer is
// byte-aligned with the JSONL trace file, newline excepted.
func TestAppendJSONMatchesJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	e := Event{Name: "x", Fields: []Field{F("a", 1), F("b", "two")}}
	sink.Emit(e)
	want := strings.TrimSuffix(buf.String(), "\n")
	if got := string(e.AppendJSON(nil)); got != want {
		t.Errorf("AppendJSON = %q, want %q", got, want)
	}
}
