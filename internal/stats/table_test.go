package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("title", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	tb.AddRow("short") // missing cell renders empty
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "title\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All value columns start at the same offset.
	idx := strings.Index(lines[1], "value")
	for _, l := range []string{lines[3], lines[4]} {
		if len(l) <= idx {
			continue
		}
		if l[idx-1] != ' ' {
			t.Errorf("misaligned row %q", l)
		}
	}
}

func TestFormatters(t *testing.T) {
	if F(1.2345) != "1.234" && F(1.2345) != "1.235" {
		t.Errorf("F(1.2345) = %s", F(1.2345))
	}
	if Pct(0.142) != "+14.2%" {
		t.Errorf("Pct(0.142) = %s", Pct(0.142))
	}
	if Pct(-0.05) != "-5.0%" {
		t.Errorf("Pct(-0.05) = %s", Pct(-0.05))
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}
