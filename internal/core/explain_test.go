package core

import (
	"strings"
	"testing"
	"time"
)

func TestDecisionExplain(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "frag", false, []partLayout{{"", 20, 10 * mb}})
	l.addTable(t, "db1", "healthy", false, []partLayout{{"", 2, 600 * mb}})
	l.clock.Advance(time.Hour)
	svc := buildService(t, l, TopK{K: 1})
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	out := d.Explain(10)
	for _, want := range []string{
		"funnel:", "2 generated", "1 selected",
		"db1.frag", "file_count_reduction", "yes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	// The filtered healthy table does not appear in the ranking.
	if strings.Contains(out, "db1.healthy") {
		t.Fatalf("filtered candidate listed:\n%s", out)
	}
}

func TestDecisionExplainTruncates(t *testing.T) {
	l := newLake(t)
	for i := 0; i < 8; i++ {
		l.addTable(t, "db1", "t"+itoa(i), false, []partLayout{{"", 5, 10 * mb}})
	}
	l.clock.Advance(time.Hour)
	svc := buildService(t, l, TopK{K: 2})
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	out := d.Explain(3)
	if !strings.Contains(out, "and 5 more ranked candidates") {
		t.Fatalf("truncation note missing:\n%s", out)
	}
}

func TestReportSummary(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "frag", false, []partLayout{{"", 20, 10 * mb}})
	l.clock.Advance(time.Hour)
	svc := buildService(t, l, TopK{K: 5})
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Summary()
	for _, want := range []string{"files reduced", "db1.frag", "ok", "GBHr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
