package lstlog

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// actionFileRe matches an action file's name.
var actionFileRe = regexp.MustCompile(`^\d{20}\.json$`)

// newEnv returns a fresh simulated namespace + clock pair.
func newEnv() (*storage.NameNode, *sim.Clock) {
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.Config{}, clock, sim.NewRNG(1))
	return fs, clock
}

// buildLogged creates a table with a commit log under dir and drives
// steps workload steps against it: appends every step, an overwrite
// every 7th, snapshot expiry every 11th, a manifest rewrite every 13th,
// and a metadata checkpoint every 17th — enough to log every action
// kind. It returns the live table.
func buildLogged(t *testing.T, store *Store, fs *storage.NameNode, clock *sim.Clock, steps int) *lst.Table {
	t.Helper()
	tbl, err := lst.NewTable(lst.TableConfig{
		Database: "db", Name: "events",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.CreateTableLog("db", "events")
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(tbl.CreateAction()); err != nil {
		t.Fatal(err)
	}
	tbl.SetActionSink(log.Sink())
	driveSteps(t, tbl, clock, 0, steps)
	return tbl
}

// buildUnlogged replays the same workload without any log attached —
// the unharmed replica the recovered table must match.
func buildUnlogged(t *testing.T, fs *storage.NameNode, clock *sim.Clock, steps int) *lst.Table {
	t.Helper()
	tbl, err := lst.NewTable(lst.TableConfig{
		Database: "db", Name: "events",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, tbl, clock, 0, steps)
	return tbl
}

func driveSteps(t *testing.T, tbl *lst.Table, clock *sim.Clock, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		clock.Advance(time.Minute)
		part := []string{"2024-01-01", "2024-01-02", "2024-01-03"}[i%3]
		if _, err := tbl.AppendFiles([]lst.FileSpec{
			{Partition: part, SizeBytes: int64(4+i%5) * storage.MB, RowCount: int64(1000 + i)},
			{Partition: part, SizeBytes: 2 * storage.MB, RowCount: 500},
		}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			if _, err := tbl.OverwritePartition(part, []lst.FileSpec{
				{Partition: part, SizeBytes: 96 * storage.MB, RowCount: 40_000},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if i%11 == 10 {
			if _, err := tbl.ExpireSnapshots(5); err != nil {
				t.Fatal(err)
			}
		}
		if i%13 == 12 {
			if _, err := tbl.RewriteManifests(); err != nil {
				t.Fatal(err)
			}
		}
		if i%17 == 16 {
			if _, err := tbl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func mustEqualStates(t *testing.T, want, got *lst.TableState, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: replayed state differs from original\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

// TestReplayRoundTrip drives a logged workload, reopens the directory
// in a fresh process image (new namespace, new clock), and requires
// byte-identical table state from both the artifact-first recovery path
// and the forced full-tail replay; the reopened table must then accept
// further logged commits that keep it in lockstep with the original.
func TestReplayRoundTrip(t *testing.T) {
	root := t.TempDir()
	store, err := Open(Config{Root: root, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	tbl := buildLogged(t, store, fs, clock, 40)
	want := tbl.State()

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	got, log2, err := store.OpenTable("db", "events", fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, got.State(), "artifact recovery")

	fs3, clock3 := newEnv()
	clock3.Set(clock.Now())
	tail, _, err := OpenTableTail(store.TableDir("db", "events"), fs3, clock3)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, tail.State(), "full-tail recovery")

	// The reopened table continues the log where the original stood.
	got.SetActionSink(log2.Sink())
	driveSteps(t, tbl, clock, 40, 45)
	driveSteps(t, got, clock2, 40, 45)
	mustEqualStates(t, tbl.State(), got.State(), "post-recovery commits")
}

// TestReplayTruncatedTail tears the last action file mid-write (the
// crash signature) and requires recovery to the last durable version:
// the state an unharmed replica reaches by never running the torn
// commit.
func TestReplayTruncatedTail(t *testing.T) {
	root := t.TempDir()
	store, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	tbl := buildLogged(t, store, fs, clock, 20)
	want := tbl.State()

	// The unharmed replica: same workload, final commit never run.
	fsRef, clockRef := newEnv()
	ref := buildUnlogged(t, fsRef, clockRef, 20)
	mustEqualStates(t, want, ref.State(), "replica parity")

	// One more commit lands, then its action file is torn mid-write.
	clock.Advance(time.Minute)
	if _, err := tbl.AppendFiles([]lst.FileSpec{{Partition: "2024-01-09", SizeBytes: 8 * storage.MB, RowCount: 100}}); err != nil {
		t.Fatal(err)
	}
	logDir := filepath.Join(store.TableDir("db", "events"), "_delta_log")
	entries, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	lastAction := ""
	for _, e := range entries {
		if actionFileRe.MatchString(e.Name()) && e.Name() > lastAction {
			lastAction = e.Name()
		}
	}
	data, err := os.ReadFile(filepath.Join(logDir, lastAction))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(logDir, lastAction), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	got, log2, err := OpenTable(store.TableDir("db", "events"), fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, got.State(), "truncated tail")
	// The torn LSN is re-appendable: recovery positions the log at it.
	if gotName := actionFileName(log2.NextLSN()); gotName != lastAction {
		t.Fatalf("log resumed at %s, want %s", gotName, lastAction)
	}
}

// TestReplayRefilledGapDropsLaterFiles deletes LSN 5 of a ten-action
// log, recovers (the table at version 4, the log at LSN 5), commits once
// and reopens: the reopened table must be the recovered table plus that
// commit, not the old actions past the gap replayed on top of it. Opening
// deletes nothing; the append that refills the gap does.
func TestReplayRefilledGapDropsLaterFiles(t *testing.T) {
	store, err := Open(Config{Root: t.TempDir(), Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	tbl, err := lst.NewTable(lst.TableConfig{Database: "db", Name: "events"}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.CreateTableLog("db", "events")
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(tbl.CreateAction()); err != nil {
		t.Fatal(err)
	}
	tbl.SetActionSink(log.Sink())
	commit := func(tbl *lst.Table, clock *sim.Clock) {
		t.Helper()
		clock.Advance(time.Minute)
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: 4 * storage.MB, RowCount: 100}}); err != nil {
			t.Fatal(err)
		}
	}
	for range 9 {
		commit(tbl, clock)
	}
	logDir := filepath.Join(store.TableDir("db", "events"), logDirName)
	if err := os.Remove(filepath.Join(logDir, actionFileName(5))); err != nil {
		t.Fatal(err)
	}
	later := filepath.Join(logDir, actionFileName(9))

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	got, log2, err := store.OpenTable("db", "events", fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Version(); v != 4 || log2.NextLSN() != 5 {
		t.Fatalf("recovered version %d, next LSN %d; want 4 and 5", v, log2.NextLSN())
	}
	if _, err := os.Stat(later); err != nil {
		t.Fatalf("opening the log deleted a file: %v", err)
	}
	got.SetActionSink(log2.Sink())
	commit(got, clock2)

	fs3, clock3 := newEnv()
	clock3.Set(clock2.Now())
	again, _, err := store.OpenTable("db", "events", fs3, clock3)
	if err != nil {
		t.Fatal(err)
	}
	if v := again.Version(); v != 5 {
		t.Fatalf("reopened at version %d after one commit on version 4", v)
	}
	mustEqualStates(t, got.State(), again.State(), "reopened after refilling the gap")
	if _, err := os.Stat(later); !os.IsNotExist(err) {
		t.Fatalf("the append that refilled the gap left %s: %v", filepath.Base(later), err)
	}
}

// TestReplayMissingCompacted deletes the compacted artifact newer
// versions reference and requires recovery to fall back to a full-tail
// replay with identical results.
func TestReplayMissingCompacted(t *testing.T) {
	root := t.TempDir()
	store, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	tbl := buildLogged(t, store, fs, clock, 40)
	want := tbl.State()

	logDir := filepath.Join(store.TableDir("db", "events"), "_delta_log")
	entries, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, e := range entries {
		if compactedFileRe.MatchString(e.Name()) {
			if err := os.Remove(filepath.Join(logDir, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("workload produced no compacted artifact; lengthen it")
	}

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	got, _, err := OpenTable(store.TableDir("db", "events"), fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, got.State(), "missing compacted artifact")
}

// TestReplayCorruptCompacted truncates the newest compacted artifact;
// recovery must fall back (older artifact or full tail) and still
// reconstruct identical state.
func TestReplayCorruptCompacted(t *testing.T) {
	root := t.TempDir()
	store, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	tbl := buildLogged(t, store, fs, clock, 40)
	want := tbl.State()

	logDir := filepath.Join(store.TableDir("db", "events"), "_delta_log")
	entries, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if compactedFileRe.MatchString(e.Name()) && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("workload produced no compacted artifact; lengthen it")
	}
	data, err := os.ReadFile(filepath.Join(logDir, newest))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(logDir, newest), data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	got, _, err := OpenTable(store.TableDir("db", "events"), fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, got.State(), "corrupt compacted artifact")
}
