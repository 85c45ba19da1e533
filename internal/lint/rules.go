package lint

// Rule is one catalog entry: a stable ID, its default severity, and a
// one-line description. IDs are never renumbered or reused — tools and
// fixtures pin them — and severities are fixed per rule (a -warn-as-error style
// escalation belongs to the caller's exit-code policy, not the catalog).
type Rule struct {
	ID  string
	Sev Severity
	Doc string
}

// Catalog lists every rule, grouped by family. NL rules cover .bench
// netlists and built circuits; SOC rules cover ITC'02-style .soc profiles.
// (The GO rules of cmd/lintgo live there: that linter is stdlib-only and
// self-contained by design, so it does not import this package.)
var Catalog = []Rule{
	{"NL001", Error, "combinational cycle (the offending gate path is reported)"},
	{"NL002", Error, "undriven net: referenced but never defined by INPUT or assignment"},
	{"NL003", Error, "multiply-driven net: declared INPUT and also assigned by a gate"},
	{"NL004", Warning, "dead logic: gate unreachable from every primary input or constant"},
	{"NL005", Warning, "unobservable logic: gate reaches no primary output or DFF data input"},
	{"NL006", Error, "duplicate definition: the same net defined, or declared OUTPUT, more than once"},
	{"NL007", Error, "fanin arity outside the gate type's legal range"},
	{"NL008", Error, "unknown gate type"},
	{"NL009", Error, "syntax error: line is not a .bench statement"},
	{"NL010", Warning, "fanout exceeds the configured threshold"},
	{"NL011", Warning, "hard-to-test net: SCOAP testability exceeds the configured threshold"},
	{"NL012", Warning, "unused primary input: drives nothing and is not an output"},
	{"NL013", Warning, "provably-constant net: SAT shows it never changes value under any stimulus"},
	{"NL014", Warning, "provably-untestable fault: the good-vs-faulty miter is unsatisfiable"},

	{"CEC001", Error, "compiled PPSFP program is not equivalent to its source netlist"},

	{"SOC001", Error, "syntax error: malformed .soc directive or value"},
	{"SOC002", Error, "duplicate module definition"},
	{"SOC003", Error, "children list references an undefined core"},
	{"SOC004", Error, "module embedded by more than one parent"},
	{"SOC005", Error, "hierarchy cycle, or the top module embedded in another module"},
	{"SOC006", Error, "missing or undefined top module"},
	{"SOC007", Error, "module not reachable from the top (orphan)"},
	{"SOC008", Error, "declared scan-chain lengths do not sum to the scan-cell count"},
	{"SOC009", Warning, "module has scan cells but a zero pattern count (cells never exercised)"},
	{"SOC010", Error, "measured T_mono below the largest module pattern count (violates Eq. 2; Benefit would panic)"},
	{"SOC011", Info, "T_mono unmeasured: only the optimistic Eq. 3 bound applies"},
	{"SOC012", Warning, "module tests zero data: patterns > 0 but no ports, scan cells or children"},
	// SOC013 (more pre-stitched chains than the TAM width ceiling) is
	// retired and never reused: the wrapper concatenates chains, so such
	// a core schedules at every width.
	{"SOC014", Error, "a term or sum of the TDV equations overflows int64"},
}

var ruleByID = func() map[string]Rule {
	m := make(map[string]Rule, len(Catalog))
	for _, r := range Catalog {
		m[r.ID] = r
	}
	return m
}()

// RuleSeverity returns the catalog severity for a rule ID; unknown IDs are
// treated as errors so a typo in a checker never silently downgrades a
// finding.
func RuleSeverity(id string) Severity {
	if r, ok := ruleByID[id]; ok {
		return r.Sev
	}
	return Error
}
