package fleet

import (
	"fmt"
	"maps"
	"time"

	"autocomp/internal/sim"
)

// TableState is one table's aggregate model, serialized. Field names
// mirror Table's internals; see there for semantics.
type TableState struct {
	DB          string `json:"db"`
	Name        string `json:"name"`
	Partitioned bool   `json:"partitioned,omitempty"`
	Partitions  int    `json:"partitions"`

	Counts [3]int64 `json:"counts"`
	Bytes  [3]int64 `json:"bytes"`

	Created   time.Duration `json:"created_ns"`
	LastWrite time.Duration `json:"last_write_ns"`
	Writes    int64         `json:"writes"`

	GrowthPerDay float64 `json:"growth_per_day"`
	AvgNewFile   int64   `json:"avg_new_file"`
	ScanShare    float64 `json:"scan_share"`

	MetaJSONs         int64 `json:"meta_jsons"`
	Manifests         int64 `json:"manifests"`
	Checkpoints       int64 `json:"checkpoints"`
	MetaBytes         int64 `json:"meta_bytes"`
	Snapshots         int64 `json:"snapshots"`
	Commits           int64 `json:"commits"`
	VersionsSinceCkpt int64 `json:"versions_since_ckpt"`

	Props map[string]string `json:"props,omitempty"`
}

// RNGState records how many draws each of the fleet's independent
// randomness streams has consumed; Restore fast-forwards fresh streams
// to the same positions so post-restore dynamics are byte-identical to
// an uninterrupted run.
type RNGState struct {
	Tables int64 `json:"tables"`
	Writes int64 `json:"writes"`
	Scans  int64 `json:"scans"`
	Exec   int64 `json:"exec"`
}

// State is a complete fleet snapshot: configuration, virtual time,
// every table's aggregate model, and the RNG stream positions.
type State struct {
	Config        Config        `json:"config"`
	Day           int           `json:"day"`
	Onboarded     int           `json:"onboarded"`
	Now           time.Duration `json:"now_ns"`
	OpenCalls     int64         `json:"open_calls"`
	MetaOpenCalls int64         `json:"meta_open_calls"`
	RNG           RNGState      `json:"rng"`
	Tables        []TableState  `json:"tables"`
}

// Snapshot captures the fleet's full state. The attached changefeed is
// not part of it — observation-plane attachments are reconstructed by
// the harness after Restore, as at first boot.
func (f *Fleet) Snapshot() *State {
	st := f.header()
	st.Tables = make([]TableState, 0, len(f.tables))
	for _, t := range f.tables {
		ts := t.state()
		if len(ts.Props) > 0 {
			ts.Props = maps.Clone(ts.Props)
		} else {
			ts.Props = nil
		}
		st.Tables = append(st.Tables, ts)
	}
	return &st
}

// header is the fleet's State without its tables.
func (f *Fleet) header() State {
	return State{
		Config:        f.cfg,
		Day:           f.day,
		Onboarded:     f.onboarded,
		Now:           f.clock.Now(),
		OpenCalls:     f.openCalls,
		MetaOpenCalls: f.metaOpenCalls,
		RNG: RNGState{
			Tables: f.rngTables.Draws(),
			Writes: f.rngWrites.Draws(),
			Scans:  f.rngScans.Draws(),
			Exec:   f.rngExec.Draws(),
		},
	}
}

// state is the table's TableState. Its Props is the table's own map,
// which Snapshot copies and the lake's state stream only reads.
func (t *Table) state() TableState {
	return TableState{
		DB: t.Database(), Name: t.Name(),
		Partitioned: t.partitioned, Partitions: t.partitions,
		Counts: t.counts, Bytes: t.bytes,
		Created: t.created, LastWrite: t.lastWrite, Writes: t.writes,
		GrowthPerDay: t.growthPerDay, AvgNewFile: t.avgNewFile, ScanShare: t.scanShare,
		MetaJSONs: t.metaJSONs, Manifests: t.manifests, Checkpoints: t.checkpoints,
		MetaBytes: t.metaBytes, Snapshots: t.snapshots, Commits: t.commits,
		VersionsSinceCkpt: t.versionsSinceCkpt,
		Props:             t.props,
	}
}

// maxRestoreDraws bounds the sum of a snapshot's four RNG stream
// positions. Restore replays each draw (about 6 ns on a 2-vCPU Xeon), so
// a snapshot at the bound takes about 6 s to boot however its draws are
// split. Under the default policy the streams advance about 2.5 draws
// per table per day together (writes about 2, exec about 0.5) after
// about 10 per table at creation, so the bound covers about 4,000 days
// at 100k tables.
const maxRestoreDraws = 1 << 30

// Restore rebuilds a fleet from a snapshot without re-running its
// history: tables are materialized directly, the per-database file
// counters recounted, virtual time advanced to the snapshot's, and every
// RNG stream fast-forwarded to its recorded draw count — so the day
// after a restore draws exactly what the day after the snapshot would
// have.
func Restore(st *State, clock *sim.Clock) (*Fleet, error) {
	if st == nil {
		return nil, fmt.Errorf("fleet: nil snapshot")
	}
	// A stream cannot sit before its first draw: replaying a negative
	// count would start the stream over while it still reported the
	// count, so every restore would repeat the draws already made. Past
	// maxRestoreDraws in total the replay would stall the boot; the sum
	// never passes the bound, so adding a position cannot overflow.
	var total int64
	for _, s := range []struct {
		name  string
		draws int64
	}{{"tables", st.RNG.Tables}, {"writes", st.RNG.Writes}, {"scans", st.RNG.Scans}, {"exec", st.RNG.Exec}} {
		if s.draws < 0 {
			return nil, fmt.Errorf("fleet: rng stream %q at negative position %d", s.name, s.draws)
		}
		if s.draws > maxRestoreDraws-total {
			return nil, fmt.Errorf(`fleet: rng positions "tables" %d, "writes" %d, "scans" %d, "exec" %d sum past the restore bound %d`,
				st.RNG.Tables, st.RNG.Writes, st.RNG.Scans, st.RNG.Exec, maxRestoreDraws)
		}
		total += s.draws
	}
	if now := clock.Now(); now < st.Now {
		clock.Set(st.Now)
	} else if now > st.Now {
		return nil, fmt.Errorf("fleet: clock at %v is past the snapshot's %v", now, st.Now)
	}
	f := &Fleet{
		cfg:           st.Config,
		clock:         clock,
		rngTables:     sim.NewRNGAt(sim.ChildSeed(st.Config.Seed, "fleet/tables"), st.RNG.Tables),
		rngWrites:     sim.NewRNGAt(sim.ChildSeed(st.Config.Seed, "fleet/writes"), st.RNG.Writes),
		rngScans:      sim.NewRNGAt(sim.ChildSeed(st.Config.Seed, "fleet/scans"), st.RNG.Scans),
		rngExec:       sim.NewRNGAt(sim.ChildSeed(st.Config.Seed, "fleet/exec"), st.RNG.Exec),
		dbFiles:       make(map[string]*int64),
		day:           st.Day,
		onboarded:     st.Onboarded,
		openCalls:     st.OpenCalls,
		metaOpenCalls: st.MetaOpenCalls,
	}
	f.tables = make([]*Table, 0, len(st.Tables))
	for _, ts := range st.Tables {
		t := &Table{
			partitioned: ts.Partitioned, partitions: ts.Partitions,
			counts: ts.Counts, bytes: ts.Bytes,
			created: ts.Created, lastWrite: ts.LastWrite, writes: ts.Writes,
			growthPerDay: ts.GrowthPerDay, avgNewFile: ts.AvgNewFile, scanShare: ts.ScanShare,
			metaJSONs: ts.MetaJSONs, manifests: ts.Manifests, checkpoints: ts.Checkpoints,
			metaBytes: ts.MetaBytes, snapshots: ts.Snapshots, commits: ts.Commits,
			versionsSinceCkpt: ts.VersionsSinceCkpt,
			fleet:             f,
		}
		t.setName(ts.DB, ts.Name)
		if len(ts.Props) > 0 {
			t.props = make(map[string]string, len(ts.Props))
			for k, v := range ts.Props {
				t.props[k] = v
			}
		}
		f.tables = append(f.tables, t)
		t.addDBFiles(t.counts[0] + t.counts[1] + t.counts[2])
	}
	f.refreshGauges()
	return f, nil
}

// Clock returns the fleet's clock.
func (f *Fleet) Clock() *sim.Clock { return f.clock }
