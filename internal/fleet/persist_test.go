package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autocomp/internal/policy"
	"autocomp/internal/sim"
)

// TestPersistFleetRoundTrip snapshots a fleet mid-run, restores it into
// a fresh process image (new clock, new RNG streams), and requires the
// remaining days — organic writes, drift, onboarding, scans, writer
// commits — to unfold byte-identically to the uninterrupted original.
func TestPersistFleetRoundTrip(t *testing.T) {
	cfg := Config{
		Seed:                42,
		InitialTables:       120,
		Databases:           6,
		QuotaObjectsPerDB:   500_000,
		TablesPerMonth:      60,
		InitialTinyFraction: 0.8,
		DailyDriftProb:      0.01,
		DailyWriteProb:      0.5,
	}
	run := func(days int) *Fleet {
		f := New(cfg, sim.NewClock())
		for d := 0; d < days; d++ {
			f.AdvanceDay()
			f.RunDailyScans()
			f.Tables()[d%len(f.Tables())].WriterCommit(5)
		}
		return f
	}

	const split, total = 7, 14
	orig := run(total)

	// Snapshot at the split, round-trip through JSON (the tenant's
	// persistence format), restore, then run the remaining days.
	mid := run(split)
	data, err := json.Marshal(mid.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&st, sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Day() != split {
		t.Fatalf("restored day = %d, want %d", restored.Day(), split)
	}
	for d := split; d < total; d++ {
		restored.AdvanceDay()
		restored.RunDailyScans()
		restored.Tables()[d%len(restored.Tables())].WriterCommit(5)
	}
	for _, f := range []*Fleet{orig, restored} {
		for _, tb := range f.Tables() {
			if tb.FullName() != tb.Database()+"."+tb.Name() {
				t.Fatalf("table %q: database %q, name %q", tb.FullName(), tb.Database(), tb.Name())
			}
		}
	}

	want, got := orig.Snapshot(), restored.Snapshot()
	if !reflect.DeepEqual(want, got) {
		if want.RNG != got.RNG {
			t.Errorf("RNG positions diverged: want %+v got %+v", want.RNG, got.RNG)
		}
		for i := range want.Tables {
			if i < len(got.Tables) && !reflect.DeepEqual(want.Tables[i], got.Tables[i]) {
				t.Fatalf("table %d diverged\nwant: %+v\ngot:  %+v", i, want.Tables[i], got.Tables[i])
			}
		}
		t.Fatalf("restored fleet diverged\nwant: %+v\ngot:  %+v",
			struct {
				Day       int
				Onboarded int
				Open      int64
				MetaOpen  int64
			}{want.Day, want.Onboarded, want.OpenCalls, want.MetaOpenCalls},
			struct {
				Day       int
				Onboarded int
				Open      int64
				MetaOpen  int64
			}{got.Day, got.Onboarded, got.OpenCalls, got.MetaOpenCalls})
	}
}

// TestRestoreRejectsOutOfRangeRNGPosition requires Restore to refuse a
// snapshot whose RNG stream sits at a negative draw count or past
// maxRestoreDraws, naming the stream, and one whose four streams sit
// at maxRestoreDraws/4+1 each, naming the positions, without replaying
// them; and a durable lake whose fleet.json holds a negative position
// to fail to open rather than replay draws it already made.
func TestRestoreRejectsOutOfRangeRNGPosition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialTables, cfg.Databases = 60, 3
	f := New(cfg, sim.NewClock())
	f.AdvanceDay()
	for _, stream := range []struct {
		name string
		pos  func(*RNGState) *int64
	}{
		{"tables", func(r *RNGState) *int64 { return &r.Tables }},
		{"writes", func(r *RNGState) *int64 { return &r.Writes }},
		{"scans", func(r *RNGState) *int64 { return &r.Scans }},
		{"exec", func(r *RNGState) *int64 { return &r.Exec }},
	} {
		for _, pos := range []int64{-3, maxRestoreDraws + 1} {
			st := f.Snapshot()
			*stream.pos(&st.RNG) = pos
			_, err := Restore(st, sim.NewClock())
			if err == nil || !strings.Contains(err.Error(), `"`+stream.name+`"`) {
				t.Fatalf("restore with %s at %d = %v, want an error naming the stream", stream.name, pos, err)
			}
		}
	}
	snap := f.Snapshot()
	q := int64(maxRestoreDraws/4 + 1)
	snap.RNG = RNGState{Tables: q, Writes: q, Scans: q, Exec: q}
	_, err := Restore(snap, sim.NewClock())
	want := fmt.Sprintf(`"tables" %d, "writes" %d, "scans" %d, "exec" %d sum past`, q, q, q, q)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore with every stream at %d = %v, want an error naming the positions", q, err)
	}

	root := t.TempDir()
	sp := policy.DefaultSpec()
	sp.Storage = &policy.StorageSpec{Backend: policy.StorageBackendLog, Root: root, Fsync: "always"}
	l, err := OpenLake("alpha", cfg, sp, SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "tenants", "alpha", "fleet.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st lakeState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st.Fleet.RNG.Writes = -3
	if data, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLake("alpha", cfg, sp, SpecRunOptions{}); err == nil || !strings.Contains(err.Error(), `"writes"`) {
		t.Fatalf("open with a negative writes position = %v, want a restore error naming the stream", err)
	}
}

// TestLakeStepStopsAtMaxDays requires a lake whose fleet clock has
// reached MaxDays days to refuse the next day with an error instead of
// advancing: one restored a day short of the bound steps once and then
// stops, and one restored where another day would wrap the clock
// negative stops at once rather than panic in the cycle.
func TestLakeStepStopsAtMaxDays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialTables, cfg.Databases = 30, 3
	root := t.TempDir()
	sp := policy.DefaultSpec()
	sp.Storage = &policy.StorageSpec{Backend: policy.StorageBackendLog, Root: root}
	l, err := OpenLake("alpha", cfg, sp, SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "tenants", "alpha", "fleet.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// reopen restores the lake with its fleet clock at now.
	reopen := func(now time.Duration) *Lake {
		t.Helper()
		var st lakeState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		st.Fleet.Now = now
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLake("alpha", cfg, sp, SpecRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	const day = 24 * time.Hour
	l = reopen((MaxDays - 1) * day)
	if _, err := l.Step(nil); err != nil {
		t.Fatalf("step to day MaxDays: %v", err)
	}
	if _, err := l.Step(nil); err == nil || !strings.Contains(err.Error(), "MaxDays") {
		t.Fatalf("step past MaxDays = %v, want an error naming MaxDays", err)
	}
	l = reopen(math.MaxInt64 - day/2)
	if _, err := l.Step(nil); err == nil || !strings.Contains(err.Error(), "MaxDays") {
		t.Fatalf("step on a clock a day short of wrapping = %v, want an error naming MaxDays", err)
	}
	if got := l.Fleet().Clock().Now(); got != math.MaxInt64-day/2 {
		t.Fatalf("refused step moved the clock to %v", got)
	}
}
