package report

import (
	"strings"
	"testing"
	"time"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", 1.23456)
	tb.AddRow("b", 42)
	s := tb.String()
	if !strings.Contains(s, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "1.235") {
		t.Errorf("missing cells:\n%s", s)
	}
	// Columns are aligned: header and rows share prefix width.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), s)
		}
	}
}

func TestTableStringerCells(t *testing.T) {
	tb := NewTable("", "dur")
	tb.AddRow(1500 * time.Millisecond)
	if !strings.Contains(tb.String(), "1.5s") {
		t.Errorf("duration not formatted: %s", tb.String())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", `with "quote"`)
	tb.AddRow("comma,here", 7)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `"with ""quote"""`) {
		t.Errorf("quote escaping wrong:\n%s", got)
	}
	if !strings.Contains(got, `"comma,here"`) {
		t.Errorf("comma escaping wrong:\n%s", got)
	}
	if !strings.HasPrefix(got, "a,b\n") {
		t.Errorf("header wrong:\n%s", got)
	}
}

func TestEmptyTable(t *testing.T) {
	tb := NewTable("", "only")
	s := tb.String()
	if !strings.Contains(s, "only") {
		t.Errorf("header missing:\n%s", s)
	}
}
