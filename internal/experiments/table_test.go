package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "cost")
	tb.AddRow("bypass", "$1.00")
	tb.AddRow("econ-cheap") // short row padded
	out := tb.String()
	if !strings.Contains(out, "scheme") || !strings.Contains(out, "bypass") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("line count = %d\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	// All lines align to equal width per column: header width check.
	if !strings.HasPrefix(lines[1], "------") {
		t.Errorf("separator malformed: %q", lines[1])
	}
}
