package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// commitResult is what the durable commit stream measured.
type commitResult struct {
	// appendUS times each AppendFiles call's fsync'd log append and
	// selfUS the rest of the call.
	appendUS, selfUS []float64
	checkpointMS     []float64
	// recoverMS times cold OpenTable reopens (newest compacted artifact
	// plus the action tail); replayFullMS times full replays from LSN 0.
	recoverMS, replayFullMS []float64
	logBytes                int64
	versions                int64
	// ops counts the table operations issued.
	ops int
}

// The commit stream's shape: a compaction-shaped overwrite every
// overwriteEvery appends, snapshot expiry to retainSnapshots plus a
// checkpoint every checkpointEvery appends, then recoveries cold reopens
// of each kind.
const (
	overwriteEvery  = 25
	checkpointEvery = 100
	retainSnapshots = 20
	recoveries      = 5
)

// runCommitStream writes commits two-file appends to one logged lst
// table under the "always" flush policy — every action file and its
// directory fsync'd — then recovers it cold and checks that each
// recovered state equals the writer's final state. File sizes derive
// from seed.
func runCommitStream(commits int, seed int64, tr *tracer) (*commitResult, error) {
	dir, err := os.MkdirTemp("", "autocomp-bench-log-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := lstlog.Open(lstlog.Config{Root: dir, Fsync: lstlog.FsyncAlways})
	if err != nil {
		return nil, err
	}
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(seed))
	tbl, err := lst.NewTable(lst.TableConfig{
		Database: "db", Name: "events",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	}, fs, clock)
	if err != nil {
		return nil, err
	}
	tlog, err := store.CreateTableLog("db", "events")
	if err != nil {
		return nil, err
	}
	if err := tlog.Append(tbl.CreateAction()); err != nil {
		return nil, err
	}
	logAppend := tlog.Sink()
	var sinkTime time.Duration
	tbl.SetActionSink(func(a lst.Action) error {
		t := time.Now()
		err := logAppend(a)
		sinkTime += time.Since(t)
		return err
	})

	res := &commitResult{}
	rng := sim.Child(seed, "benchmark/commit-stream")
	parts := []string{"2024-01-01", "2024-01-02", "2024-01-03"}
	start := time.Now()
	var busy time.Duration
	for i := 0; i < commits; i++ {
		if i%256 == 0 {
			runtime.GC()
		}
		clock.Advance(time.Minute)
		part := parts[i%len(parts)]
		specs := []lst.FileSpec{
			{Partition: part, SizeBytes: int64(rng.IntBetween(1, 16)) * storage.MB, RowCount: int64(rng.IntBetween(100, 5000))},
			{Partition: part, SizeBytes: int64(rng.IntBetween(1, 4)) * storage.MB, RowCount: int64(rng.IntBetween(100, 1000))},
		}
		sinkTime = 0
		t := time.Now()
		if _, err := tbl.AppendFiles(specs); err != nil {
			return nil, fmt.Errorf("commit %d: %w", i+1, err)
		}
		d := time.Since(t)
		res.ops++
		busy += d
		res.appendUS = append(res.appendUS, us(sinkTime))
		res.selfUS = append(res.selfUS, us(d-sinkTime))
		if (i+1)%overwriteEvery == 0 {
			// A compaction-shaped overwrite collapses the partition's
			// accumulated small files, keeping the live file set bounded.
			if _, err := tbl.OverwritePartition(part, []lst.FileSpec{
				{Partition: part, SizeBytes: 256 * storage.MB, RowCount: 100_000},
			}); err != nil {
				return nil, fmt.Errorf("overwrite after commit %d: %w", i+1, err)
			}
			res.ops++
		}
		if (i+1)%checkpointEvery == 0 {
			// Expiry bounds the snapshot history, and so the checkpoint
			// artifact, before the checkpoint writes it.
			if _, err := tbl.ExpireSnapshots(retainSnapshots); err != nil {
				return nil, fmt.Errorf("expiry after commit %d: %w", i+1, err)
			}
			t := time.Now()
			if _, err := tbl.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint after commit %d: %w", i+1, err)
			}
			res.checkpointMS = append(res.checkpointMS, ms(time.Since(t)))
			res.ops += 2
		}
	}
	tr.addSeam(0, "lst.commit", start, time.Now(), seamTotals{calls: int64(commits), busy: busy})
	res.versions = tbl.Version()
	want := tbl.State()

	entries, err := os.ReadDir(filepath.Join(store.TableDir("db", "events"), "_delta_log"))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		res.logBytes += info.Size()
	}

	reopen := func(open func(string, *storage.NameNode, *sim.Clock) (*lst.Table, *lstlog.TableLog, error), name string) (float64, error) {
		runtime.GC()
		fs := storage.NewNameNode(storage.DefaultConfig(), sim.NewClock(), sim.NewRNG(seed))
		t := time.Now()
		got, _, err := open(store.TableDir("db", "events"), fs, sim.NewClock())
		d := time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		tr.add(0, name, t, t.Add(d), 0)
		if !reflect.DeepEqual(want, got.State()) {
			return 0, fmt.Errorf("%s recovered a state that differs from the writer's", name)
		}
		res.ops++
		return ms(d), nil
	}
	for r := 0; r < recoveries; r++ {
		d, err := reopen(lstlog.OpenTable, "lstlog.replay")
		if err != nil {
			return nil, err
		}
		res.recoverMS = append(res.recoverMS, d)
		if d, err = reopen(lstlog.OpenTableTail, "lstlog.replay_full"); err != nil {
			return nil, err
		}
		res.replayFullMS = append(res.replayFullMS, d)
	}
	return res, nil
}
