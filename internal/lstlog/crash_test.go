package lstlog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// crashLog writes one table's log through store: its create action,
// commits in two partitions, an expiry, a checkpoint, more commits, a
// manifest rewrite and two last commits. Every operation must log one
// action; it returns the writer's state after each LSN.
func crashLog(t *testing.T, store *Store) []*lst.TableState {
	t.Helper()
	fs, clock := newEnv()
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
	states := []*lst.TableState{tbl.State()}
	step := func(what string, op func() error) {
		t.Helper()
		clock.Advance(time.Minute)
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := log.NextLSN(); got != int64(len(states))+1 {
			t.Fatalf("%s logged %d actions, want 1", what, got-int64(len(states)))
		}
		states = append(states, tbl.State())
	}
	commit := func(i int) {
		part := []string{"2024-01-01", "2024-01-02"}[i%2]
		step("commit", func() error {
			_, err := tbl.AppendFiles([]lst.FileSpec{{Partition: part, SizeBytes: int64(2+i) * storage.MB, RowCount: 100}})
			return err
		})
	}
	for i := 0; i < 6; i++ {
		commit(i)
	}
	step("expiry", func() error { _, err := tbl.ExpireSnapshots(2); return err })
	step("checkpoint", func() error { _, err := tbl.Checkpoint(); return err })
	for i := 6; i < 9; i++ {
		commit(i)
	}
	step("manifest rewrite", func() error { _, err := tbl.RewriteManifests(); return err })
	commit(9)
	commit(10)
	return states
}

// crashWrite is one file write of the log, in the order the writer made
// it, with the LSN of the last action complete once it lands.
type crashWrite struct {
	name string
	data []byte
	lsn  int64
}

// TestReplayEveryCrashPoint crashes a table's log at every file write —
// the write absent, or present only as an orphaned temp file — and
// requires OpenTable to recover exactly the writer's state after the
// last complete action, then to log one more commit that a second
// OpenTable replays. A crash between a checkpoint's action file and its
// artifact recovers the state of a crash after both: the artifact only
// accelerates, the action file holds the record.
func TestReplayEveryCrashPoint(t *testing.T) {
	store, err := Open(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	states := crashLog(t, store)
	logDir := filepath.Join(store.TableDir("db", "events"), logDirName)
	var writes []crashWrite
	read := func(name string, lsn int64) {
		data, err := os.ReadFile(filepath.Join(logDir, name))
		if err != nil {
			t.Fatal(err)
		}
		writes = append(writes, crashWrite{name, data, lsn})
	}
	for lsn := range int64(len(states)) {
		read(actionFileName(lsn), lsn)
		if _, err := os.Stat(filepath.Join(logDir, compactedFileName(0, lsn))); err == nil {
			read(compactedFileName(0, lsn), lsn)
		}
	}
	if entries, err := os.ReadDir(logDir); err != nil || len(entries) != len(writes) || len(writes) != len(states)+1 {
		t.Fatalf("log holds %d files (%v), want one per action plus one artifact (%d)", len(entries), err, len(states)+1)
	}

	for w := 0; w <= len(writes); w++ {
		for _, torn := range []bool{false, true} {
			if w == len(writes) && torn {
				continue
			}
			label := "after every write"
			if w < len(writes) {
				label = "absent " + writes[w].name
				if torn {
					label = "orphaned temp file for " + writes[w].name
				}
			}
			root := t.TempDir()
			dir := filepath.Join(root, "db", "events", logDirName)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, wr := range writes[:w] {
				if err := os.WriteFile(filepath.Join(dir, wr.name), wr.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if torn {
				if err := os.WriteFile(filepath.Join(dir, ".tmp-1234"), writes[w].data[:len(writes[w].data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			crashed, err := Open(Config{Root: root})
			if err != nil {
				t.Fatal(err)
			}
			fs, clock := newEnv()
			got, log, err := crashed.OpenTable("db", "events", fs, clock)
			if w == 0 {
				// The create action never landed: there is no table.
				if err == nil {
					t.Fatalf("%s: OpenTable recovered %s", label, got.FullName())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			last := writes[w-1].lsn
			mustEqualStates(t, states[last], got.State(), label)
			if log.NextLSN() != last+1 {
				t.Fatalf("%s: log resumes at LSN %d, want %d", label, log.NextLSN(), last+1)
			}

			got.SetActionSink(log.Sink())
			clock.Set(time.Hour)
			if _, err := got.AppendFiles([]lst.FileSpec{{Partition: "2024-01-03", SizeBytes: storage.MB, RowCount: 10}}); err != nil {
				t.Fatalf("%s: commit after recovery: %v", label, err)
			}
			fs2, clock2 := newEnv()
			again, _, err := crashed.OpenTable("db", "events", fs2, clock2)
			if err != nil {
				t.Fatalf("%s: reopening after the commit: %v", label, err)
			}
			mustEqualStates(t, got.State(), again.State(), label+", then one commit")
		}
	}
}

// TestReplayCheckpointStateInArtifactOnly pins where a checkpoint's
// state lives: its action file has no "state" key, and its compacted
// artifact holds the writer's full state at that LSN.
func TestReplayCheckpointStateInArtifactOnly(t *testing.T) {
	store, err := Open(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	states := crashLog(t, store)
	logDir := filepath.Join(store.TableDir("db", "events"), logDirName)
	checkpoints := 0
	for lsn := range int64(len(states)) {
		var a map[string]json.RawMessage
		data, err := os.ReadFile(filepath.Join(logDir, actionFileName(lsn)))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
		if _, ok := a["state"]; ok {
			t.Fatalf("action file %d carries a state: %s", lsn, data)
		}
		if string(a["kind"]) != `"checkpoint"` {
			continue
		}
		checkpoints++
		var art compactedArtifact
		data, err = os.ReadFile(filepath.Join(logDir, compactedFileName(0, lsn)))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &art); err != nil {
			t.Fatal(err)
		}
		if art.LSN != lsn {
			t.Fatalf("artifact covers LSN %d, want %d", art.LSN, lsn)
		}
		mustEqualStates(t, states[lsn], art.State, "checkpoint artifact")
	}
	if checkpoints != 1 {
		t.Fatalf("log holds %d checkpoint actions, want 1", checkpoints)
	}
}

// TestReplayLegacyCheckpointState replays a log whose checkpoint action
// files still carry the "state" key older logs wrote: recovery, by
// artifact and by full replay, reaches the writer's state unchanged.
func TestReplayLegacyCheckpointState(t *testing.T) {
	store, err := Open(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	want := buildLogged(t, store, fs, clock, 40).State()
	logDir := filepath.Join(store.TableDir("db", "events"), logDirName)
	entries, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := 0
	for _, e := range entries {
		m := compactedFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		var art map[string]json.RawMessage
		if data, err := os.ReadFile(filepath.Join(logDir, e.Name())); err != nil || json.Unmarshal(data, &art) != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		path := filepath.Join(logDir, m[2]+".json")
		var a map[string]json.RawMessage
		if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &a) != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		a["state"] = art["state"]
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		legacy++
	}
	if legacy < 2 {
		t.Fatalf("workload logged %d checkpoints; lengthen it", legacy)
	}

	for name, open := range map[string]func(string, *storage.NameNode, *sim.Clock) (*lst.Table, *TableLog, error){
		"artifact recovery": OpenTable, "full replay": OpenTableTail,
	} {
		fs2, clock2 := newEnv()
		got, _, err := open(store.TableDir("db", "events"), fs2, clock2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustEqualStates(t, want, got.State(), name)
	}
}

// TestReplayLogMustStartWithCreate writes logs whose LSN 0 is not a
// create action — the state-bearing checkpoint older catalogs began a
// log with, and a commit — and requires OpenTable to refuse each,
// naming the kind it found.
func TestReplayLogMustStartWithCreate(t *testing.T) {
	fs, clock := newEnv()
	tbl, err := lst.NewTable(lst.TableConfig{Database: "db", Name: "events"}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	var commit lst.Action
	tbl.SetActionSink(func(a lst.Action) error { commit = a; return nil })
	clock.Advance(time.Minute)
	if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 10}}); err != nil {
		t.Fatal(err)
	}
	bootstrap := map[string]any{"kind": lst.ActionCheckpoint, "version": tbl.Version(), "at_ns": clock.Now(), "state": tbl.State()}
	for _, first := range []struct {
		kind   string
		record any
	}{{lst.ActionCheckpoint, bootstrap}, {lst.ActionCommit, commit}} {
		data, err := json.Marshal(first.record)
		if err != nil {
			t.Fatal(err)
		}
		root := t.TempDir()
		dir := filepath.Join(root, "db", "events", logDirName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, actionFileName(0)), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fs, clock := newEnv()
		_, _, err = OpenTable(filepath.Join(root, "db", "events"), fs, clock)
		if err == nil || !strings.Contains(err.Error(), `"`+first.kind+`"`) {
			t.Fatalf("OpenTable on a log starting with %q = %v, want an error naming the kind", first.kind, err)
		}
	}
}

// TestCreateTableLogStartsFresh creates a log over a directory that
// holds an earlier log and other debris: the new log starts at LSN 0
// with none of the earlier files left, and replays only what it logs.
func TestCreateTableLogStartsFresh(t *testing.T) {
	store, err := Open(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	buildLogged(t, store, fs, clock, 20)
	tableDir := store.TableDir("db", "events")
	for _, name := range []string{".tmp-99", filepath.Join(logDirName, ".tmp-42")} {
		if err := os.WriteFile(filepath.Join(tableDir, name), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	log, err := store.CreateTableLog("db", "events")
	if err != nil {
		t.Fatal(err)
	}
	if log.NextLSN() != 0 {
		t.Fatalf("new log starts at LSN %d, want 0", log.NextLSN())
	}
	var left []string
	err = filepath.Walk(tableDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			left = append(left, path)
		}
		return err
	})
	if err != nil || len(left) > 0 {
		t.Fatalf("earlier files left after CreateTableLog: %v (%v)", left, err)
	}

	fs2, clock2 := newEnv()
	tbl, err := lst.NewTable(lst.TableConfig{Database: "db", Name: "events"}, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(tbl.CreateAction()); err != nil {
		t.Fatal(err)
	}
	tbl.SetActionSink(log.Sink())
	clock2.Advance(time.Minute)
	if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 10}}); err != nil {
		t.Fatal(err)
	}
	fs3, clock3 := newEnv()
	got, _, err := store.OpenTable("db", "events", fs3, clock3)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, tbl.State(), got.State(), "fresh log")
}
