// Package lint is the static verification layer of the repository: a small
// diagnostics engine plus two rule families that check test inputs before
// any expensive ATPG or TDV computation touches them.
//
//   - Netlist DRC (rules NL001–NL014) over .bench sources. The
//     structural rules (combinational cycles with the offending path,
//     undriven and multiply-driven nets, duplicate definitions, fanin
//     arity, unknown types, syntax) are the problems of
//     netlist.ReadBench, the one .bench reader, mapped to rules; the
//     circuit rules (dead and unobservable logic, unused
//     inputs, fanout, SCOAP testability (scoap.go) and the opt-in SAT
//     rules) run on the circuit it builds.
//   - ITC'02 SOC lint (rules SOC001–SOC014) over .soc sources: the
//     hierarchy problems of itc02.ReadSOC, the one .soc reader, and the
//     profile problems of core.SOC.Check, the one profile checker
//     (scan-chain bookkeeping and the preconditions of the paper's TDV
//     equations), each mapped to a rule.
//
// Every diagnostic carries a stable rule ID, a severity and a source
// position, renders as one text line, and can be emitted as a structured
// "lint.diag" event through an obs.Sink. The cmd/soclint CLI and socd's
// /v1/lint are thin wrappers over this package.
package lint

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Severity grades a diagnostic. Errors make the input unusable (parsers
// reject it, or downstream formulas would panic); warnings flag designs
// that are legal but suspicious; infos are observations.
type Severity uint8

const (
	Info Severity = iota
	Warning
	Error
)

// String returns the lowercase name of s.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// Pos locates a diagnostic. Line 0 means the diagnostic concerns the input
// as a whole (e.g. a structural property with no single source line).
type Pos struct {
	File string
	Line int
}

// String renders "file:line", or just "file" for whole-input positions.
func (p Pos) String() string {
	if p.Line > 0 {
		return fmt.Sprintf("%s:%d", p.File, p.Line)
	}
	return p.File
}

// Diagnostic is one finding: a stable rule ID, severity, position and
// message. Subject optionally names the net or module concerned, so
// structured consumers need not parse it back out of the message.
type Diagnostic struct {
	Rule    string
	Sev     Severity
	Pos     Pos
	Subject string
	Msg     string
}

// String renders the canonical one-line form:
//
//	s27.bench:12: error: NL002: undriven net "G99" referenced by gate "G10"
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", d.Pos, d.Sev, d.Rule, d.Msg)
}

// Report accumulates the diagnostics of one lint run.
type Report struct {
	Diags []Diagnostic
}

// Add appends a diagnostic, resolving the severity from the rule catalog.
func (r *Report) Add(rule string, pos Pos, subject, format string, args ...any) {
	r.Diags = append(r.Diags, Diagnostic{
		Rule:    rule,
		Sev:     RuleSeverity(rule),
		Pos:     pos,
		Subject: subject,
		Msg:     fmt.Sprintf(format, args...),
	})
}

// Merge appends all diagnostics of other.
func (r *Report) Merge(other *Report) {
	if other != nil {
		r.Diags = append(r.Diags, other.Diags...)
	}
}

// Count returns the number of diagnostics at exactly the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Sev == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is error-severity.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// Sort orders diagnostics by file, line, rule, then subject — a stable,
// deterministic presentation independent of rule evaluation order.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Subject < b.Subject
	})
}

// WriteText writes one line per diagnostic followed by a summary line when
// anything was found. It returns the first write error.
func (r *Report) WriteText(w io.Writer) error {
	for _, d := range r.Diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	if len(r.Diags) > 0 {
		_, err := fmt.Fprintf(w, "%d error(s), %d warning(s), %d info(s)\n",
			r.Count(Error), r.Count(Warning), r.Count(Info))
		return err
	}
	return nil
}

// EmitTo emits every diagnostic as a "lint.diag" event on the sink. Events
// carry the zero time: lint findings are static facts about the input, and
// a wall-clock stamp would make otherwise identical runs differ (the repo's
// GO002 determinism rule bans time.Now outside obs/runctl anyway).
func (r *Report) EmitTo(sink obs.Sink) {
	for _, d := range r.Diags {
		fields := []obs.Field{
			obs.F("rule", d.Rule),
			obs.F("severity", d.Sev.String()),
			obs.F("file", d.Pos.File),
			obs.F("line", d.Pos.Line),
		}
		if d.Subject != "" {
			fields = append(fields, obs.F("subject", d.Subject))
		}
		fields = append(fields, obs.F("msg", d.Msg))
		sink.Emit(obs.Event{Name: "lint.diag", Fields: fields})
	}
}
