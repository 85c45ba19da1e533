package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoIdleInternalPackages fails for any internal package that neither
// the library nor a command imports: a package with no production caller
// is deleted, not kept alive by its own tests. The allowlist names the
// packages kept on purpose for tests alone, each with its reason.
func TestNoIdleInternalPackages(t *testing.T) {
	allowed := map[string]string{
		"repro/internal/sim":     "test oracle",
		"repro/internal/wrapper": "test oracle",
	}
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				t.Fatalf("go list %v: %v\n%s", args, err, ee.Stderr)
			}
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	used := map[string]bool{}
	for _, p := range goList("-deps", ".", "./cmd/...") {
		used[p] = true
	}
	for _, p := range goList("./internal/...") {
		switch why, ok := allowed[p]; {
		case ok && used[p]:
			t.Errorf("%s is allowlisted (%s) but production code imports it; drop it from the allowlist", p, why)
		case !ok && !used[p]:
			t.Errorf("%s has no production importer; delete it or use it", p)
		}
	}
}
