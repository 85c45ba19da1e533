package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperOutputPinned renders Tables 1-4 and Figures 1-5 in the order
// and layout of the socbench live_repro golden (each block followed by a
// blank line) and requires the bytes to equal that golden, so the paper's
// rendered output is held by tier-1 and not only by the benchmark. The
// golden is read, never written.
func TestPaperOutputPinned(t *testing.T) {
	t4, err := RenderTable4()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, s := range []string{
		RenderTable1(), RenderTable2(), RenderTable3(), t4,
		RenderFigure1(), RenderFigure2(), RenderFigure3(),
		RenderFigure4(), RenderFigure5(),
	} {
		got.WriteString(s)
		got.WriteString("\n")
	}
	want, err := os.ReadFile(filepath.Join("cmd", "socbench", "testdata", "tables.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rendered tables and figures differ from cmd/socbench/testdata/tables.txt; got:\n%s", got.Bytes())
	}
}
