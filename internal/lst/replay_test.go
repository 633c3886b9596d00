package lst

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"autocomp/internal/storage"
)

// TestReplayCommitRecordsDeterministic commits the same five-partition
// appends to two identical logged tables. Each pair of logged actions
// must marshal to the same bytes, every commit's partitions must come
// out sorted, and replaying one table's log must rebuild its live state.
func TestReplayCommitRecordsDeterministic(t *testing.T) {
	parts := []string{"2024-05", "2024-01", "2024-04", "2024-02", "2024-03"}
	run := func() (*Table, []Action) {
		fs, clock := testSetup()
		tbl := newPartitionedTable(t, fs, clock, false)
		log := []Action{tbl.CreateAction()}
		tbl.SetActionSink(func(a Action) error {
			log = append(log, a)
			return nil
		})
		for i := 0; i < 20; i++ {
			clock.Advance(time.Minute)
			specs := make([]FileSpec, len(parts))
			for j, p := range parts {
				specs[j] = FileSpec{Partition: p, SizeBytes: int64(1+i+j) * storage.MB, RowCount: 1000}
			}
			if _, err := tbl.AppendFiles(specs); err != nil {
				t.Fatal(err)
			}
		}
		return tbl, log
	}
	live, logA := run()
	_, logB := run()
	if len(logA) != 21 || len(logB) != 21 {
		t.Fatalf("logged %d and %d actions, want a create and 20 commits each", len(logA), len(logB))
	}
	for i := range logA {
		a, err := json.Marshal(logA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(logB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("action %d differs between identical tables:\n%s\n%s", i, a, b)
		}
		if s := logA[i].Snapshot; s != nil && (len(s.Partitions) != len(parts) || !sort.StringsAreSorted(s.Partitions)) {
			t.Fatalf("action %d partitions %q, want the %d partitions sorted", i, s.Partitions, len(parts))
		}
	}

	fs, clock := testSetup()
	replica, err := ReplayCreate(logA[0], fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range logA[1:] {
		if err := replica.Apply(a); err != nil {
			t.Fatalf("applying action %d: %v", i+1, err)
		}
	}
	if want, got := live.State(), replica.State(); !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed state differs from the live table\nwant: %+v\ngot:  %+v", want, got)
	}
}
