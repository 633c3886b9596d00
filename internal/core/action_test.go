package core

import (
	"testing"

	"autocomp/internal/compaction"
)

func TestActionTypeStrings(t *testing.T) {
	want := map[ActionType]string{
		ActionDataCompaction:     "data-compaction",
		ActionSnapshotExpiry:     "snapshot-expiry",
		ActionMetadataCheckpoint: "metadata-checkpoint",
		ActionManifestRewrite:    "manifest-rewrite",
		ActionType(99):           "unknown",
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
	if len(ActionTypes()) != 4 {
		t.Fatalf("ActionTypes() = %v", ActionTypes())
	}
}

// TestCandidateIDCarriesAction pins the ID bytes for every scope ×
// action: rankings tie-break on them, the decision surface prints them,
// and distinct actions on one table must not collide in rankings.
func TestCandidateIDCarriesAction(t *testing.T) {
	l := newLake(t)
	tbl := l.addTable(t, "db1", "t1", false, []partLayout{{"", 2, mb}})
	cases := []struct {
		scope  Scope
		action ActionType
		want   string
	}{
		{ScopeTable, ActionDataCompaction, "db1.t1"},
		{ScopeTable, ActionSnapshotExpiry, "db1.t1#snapshot-expiry"},
		{ScopeTable, ActionMetadataCheckpoint, "db1.t1#metadata-checkpoint"},
		{ScopeTable, ActionManifestRewrite, "db1.t1#manifest-rewrite"},
		{ScopeTable, ActionType(99), "db1.t1#unknown"},
		{ScopePartition, ActionDataCompaction, "db1.t1/p"},
		{ScopePartition, ActionSnapshotExpiry, "db1.t1/p#snapshot-expiry"},
		{ScopePartition, ActionMetadataCheckpoint, "db1.t1/p#metadata-checkpoint"},
		{ScopePartition, ActionManifestRewrite, "db1.t1/p#manifest-rewrite"},
		{ScopeSnapshot, ActionDataCompaction, "db1.t1@fresh"},
		{ScopeSnapshot, ActionSnapshotExpiry, "db1.t1@fresh#snapshot-expiry"},
		{ScopeSnapshot, ActionMetadataCheckpoint, "db1.t1@fresh#metadata-checkpoint"},
		{ScopeSnapshot, ActionManifestRewrite, "db1.t1@fresh#manifest-rewrite"},
	}
	for _, tc := range cases {
		c := &Candidate{Table: tbl, Scope: tc.scope, Action: tc.action, Partition: "p"}
		if got := c.ID(); got != tc.want {
			t.Errorf("%s × %s: ID() = %q, want %q", tc.scope, tc.action, got, tc.want)
		}
	}
}

func TestMetadataReductionTrait(t *testing.T) {
	c := &Candidate{Stats: Stats{MetadataReducible: 17}}
	tr := MetadataReduction{}
	if tr.Direction() != Benefit || tr.Value(c) != 17 {
		t.Fatalf("trait = %v/%v", tr.Direction(), tr.Value(c))
	}
}

func TestComputeCostIsActionAware(t *testing.T) {
	cost := ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: 1 << 30}
	c := &Candidate{Stats: Stats{SmallBytes: 1 << 30, MetadataBytes: 1 << 20}}
	dataCost := cost.Value(c)
	c.Action = ActionMetadataCheckpoint
	metaCost := cost.Value(c)
	if metaCost >= dataCost {
		t.Fatalf("metadata cost %v >= data cost %v", metaCost, dataCost)
	}
	if metaCost <= 0 {
		t.Fatalf("metadata cost = %v", metaCost)
	}
}

func TestForActionFilterScopes(t *testing.T) {
	f := ForAction{Action: ActionDataCompaction, Inner: MinSmallFiles{Min: 2}}
	starved := &Candidate{Stats: Stats{SmallFiles: 0}}
	if f.Keep(starved) {
		t.Fatal("data candidate with 0 small files kept")
	}
	starved.Action = ActionMetadataCheckpoint
	if !f.Keep(starved) {
		t.Fatal("maintenance candidate dropped by a data-only gate")
	}

	m := MinMetadataReduction{Min: 3}
	c := &Candidate{Action: ActionSnapshotExpiry, Stats: Stats{MetadataReducible: 2}}
	if m.Keep(c) {
		t.Fatal("reducible=2 kept with Min=3")
	}
	c.Stats.MetadataReducible = 3
	if !m.Keep(c) {
		t.Fatal("reducible=3 dropped with Min=3")
	}
	d := &Candidate{Action: ActionDataCompaction}
	if !m.Keep(d) {
		t.Fatal("data candidate examined by metadata gate")
	}
}

func TestReportSeparatesMetadataReduction(t *testing.T) {
	l := newLake(t)
	tbl := l.addTable(t, "db1", "t1", false, []partLayout{{"", 2, mb}})
	rep := &Report{Decision: &Decision{}}
	rep.AddResult(&Candidate{Table: tbl, Action: ActionMetadataCheckpoint},
		compaction.Result{Table: "db1.t1", FilesRemoved: 10, FilesAdded: 1})
	rep.AddResult(&Candidate{Table: tbl},
		compaction.Result{Table: "db1.t1", FilesRemoved: 8, FilesAdded: 2})
	if rep.MetadataReduced != 9 || rep.FilesReduced != 6 {
		t.Fatalf("metadata=%d files=%d", rep.MetadataReduced, rep.FilesReduced)
	}
	counts := rep.ActionCounts()
	if counts[ActionMetadataCheckpoint] != 1 || counts[ActionDataCompaction] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}
