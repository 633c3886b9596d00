package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autocomp/internal/policy"
	"autocomp/internal/sim"
)

// oracleLakeState is the reference encoding the stream must reproduce
// byte for byte: the lake's state as json.Marshal renders a snapshot.
func oracleLakeState(name string, day int, f *Fleet) ([]byte, error) {
	return json.Marshal(&lakeState{Name: name, Day: day, Fleet: f.Snapshot()})
}

// streamLakeState collects writeLakeState's output.
func streamLakeState(name string, day int, f *Fleet) ([]byte, error) {
	var buf bytes.Buffer
	err := writeLakeState(&buf, name, day, f)
	return buf.Bytes(), err
}

// mustRestore restores st into a fresh fleet.
func mustRestore(t *testing.T, st *State) *Fleet {
	t.Helper()
	f, err := Restore(st, sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// requireStreamMatchesOracle requires the stream of f to equal the
// oracle's bytes.
func requireStreamMatchesOracle(t *testing.T, name string, day int, f *Fleet) {
	t.Helper()
	want, err := oracleLakeState(name, day, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamLakeState(name, day, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("stream differs from encoding/json at byte %d\nwant …%s\ngot  …%s",
			i, want[lo:min(len(want), i+60)], got[lo:min(len(got), i+60)])
	}
}

// Adversarial values the stream must encode exactly as encoding/json.
var (
	edgeStrings = []string{
		"", "db_7", "tbl_00042", "a<b>&c", `say "hi"`, `back\slash`,
		"\x00\x01\x1f\x7f", "\t\n\r\b\f", "line\u2028sep\u2029",
		"naïve ✓ 日本", "\xff\xfe bad utf-8 \xc3", "</script>", "plain ascii ~!@#$%^*()",
	}
	edgeInts   = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 1 << 53, -(1 << 53) - 1}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 5e-324, 9.99e-7, 1e-6, 1e20, 1e21, math.MaxFloat64,
		-5e-324, -9.99e-7, -1e-6, -1e20, -1e21, -math.MaxFloat64,
		1.5, 0.1, 1.0 / 3, 123456789.125, 1e-7, 1.2345e-10, 9.999999999999999e20,
	}
)

func randEdgeString(r *rand.Rand) string {
	if r.Intn(4) == 0 {
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return string(b)
	}
	return edgeStrings[r.Intn(len(edgeStrings))]
}

func randEdgeInt(r *rand.Rand) int64 {
	if r.Intn(3) == 0 {
		return int64(r.Uint64())
	}
	return edgeInts[r.Intn(len(edgeInts))]
}

func randEdgeFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		for {
			if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	case 1:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25))
	}
	return edgeFloats[r.Intn(len(edgeFloats))]
}

func randProps(r *rand.Rand) map[string]string {
	switch n := r.Intn(6); n {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	default:
		m := make(map[string]string, n-1)
		for len(m) < n-1 {
			m[randEdgeString(r)] = randEdgeString(r)
		}
		return m
	}
}

// randState draws a State with adversarial values everywhere encoding
// can go wrong. RNG positions stay small, as Restore replays each draw.
func randState(r *rand.Rand) *State {
	st := &State{
		Config: Config{
			Seed:                randEdgeInt(r),
			InitialTables:       int(randEdgeInt(r)),
			Databases:           int(randEdgeInt(r)),
			QuotaObjectsPerDB:   randEdgeInt(r),
			TablesPerMonth:      int(randEdgeInt(r)),
			TargetFileSize:      randEdgeInt(r),
			InitialTinyFraction: randEdgeFloat(r),
			DailyDriftProb:      randEdgeFloat(r),
			DailyWriteProb:      randEdgeFloat(r),
		},
		Day:           int(randEdgeInt(r)),
		Onboarded:     int(randEdgeInt(r)),
		Now:           time.Duration(randEdgeInt(r) & math.MaxInt64), // Restore needs Now ≥ 0
		OpenCalls:     randEdgeInt(r),
		MetaOpenCalls: randEdgeInt(r),
		RNG:           RNGState{Tables: r.Int63n(64), Writes: r.Int63n(64), Scans: r.Int63n(64), Exec: r.Int63n(64)},
		Tables:        make([]TableState, r.Intn(7)),
	}
	for i := range st.Tables {
		st.Tables[i] = TableState{
			DB: randEdgeString(r), Name: randEdgeString(r),
			Partitioned: r.Intn(2) == 0, Partitions: int(randEdgeInt(r)),
			Counts:  [3]int64{randEdgeInt(r), randEdgeInt(r), randEdgeInt(r)},
			Bytes:   [3]int64{randEdgeInt(r), randEdgeInt(r), randEdgeInt(r)},
			Created: time.Duration(randEdgeInt(r)), LastWrite: time.Duration(randEdgeInt(r)),
			Writes:       randEdgeInt(r),
			GrowthPerDay: randEdgeFloat(r), AvgNewFile: randEdgeInt(r), ScanShare: randEdgeFloat(r),
			MetaJSONs: randEdgeInt(r), Manifests: randEdgeInt(r), Checkpoints: randEdgeInt(r),
			MetaBytes: randEdgeInt(r), Snapshots: randEdgeInt(r), Commits: randEdgeInt(r),
			VersionsSinceCkpt: randEdgeInt(r),
			Props:             randProps(r),
		}
	}
	return st
}

// edgeStates puts every adversarial value in a state at least once, so
// coverage does not rest on random draws. The first state has no
// tables, which encodes as "tables":[].
func edgeStates() []*State {
	empty := &State{Config: DefaultConfig(), Now: math.MaxInt64, Tables: []TableState{}}
	var tables []TableState
	for _, s := range edgeStrings {
		tables = append(tables, TableState{DB: s, Name: s, Props: map[string]string{s: s}})
	}
	for _, v := range edgeInts {
		tables = append(tables, TableState{
			DB: "ints", Partitioned: true, Partitions: int(v),
			Counts: [3]int64{v, v, v}, Bytes: [3]int64{v, v, v},
			Created: time.Duration(v), LastWrite: time.Duration(v), Writes: v, AvgNewFile: v,
			MetaJSONs: v, Manifests: v, Checkpoints: v, MetaBytes: v,
			Snapshots: v, Commits: v, VersionsSinceCkpt: v,
		})
	}
	for _, v := range edgeFloats {
		tables = append(tables, TableState{DB: "floats", GrowthPerDay: v, ScanShare: -v})
	}
	tables = append(tables,
		TableState{DB: "props-nil"},
		TableState{DB: "props-empty", Props: map[string]string{}},
		TableState{DB: "props-4", Props: map[string]string{"b": "<", "a ": "&", "\xff": `"`, "": "\x00"}},
	)
	out := []*State{empty}
	for _, c := range []Config{
		{Seed: math.MinInt64, InitialTables: -1, TargetFileSize: math.MaxInt64, InitialTinyFraction: 5e-324, DailyDriftProb: 1e21, DailyWriteProb: math.Copysign(0, -1)},
		{InitialTinyFraction: 9.99e-7, DailyDriftProb: 1e-6, DailyWriteProb: math.MaxFloat64},
	} {
		out = append(out, &State{Config: c, Day: -1, Onboarded: math.MinInt64, OpenCalls: math.MaxInt64, MetaOpenCalls: -1, Tables: tables})
	}
	return out
}

// TestLakeStateStreamMatchesEncodingJSONProperty restores the edge
// states and random ones and requires the stream of each to equal the
// oracle byte for byte.
func TestLakeStateStreamMatchesEncodingJSONProperty(t *testing.T) {
	for _, st := range edgeStates() {
		f := mustRestore(t, st)
		requireStreamMatchesOracle(t, "a<b>&\"c\" \xff", math.MinInt64, f)
		// Restore never builds an empty props map; omitempty drops one.
		for _, tb := range f.tables {
			tb.props = map[string]string{}
		}
		requireStreamMatchesOracle(t, "", 0, f)
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		requireStreamMatchesOracle(t, randEdgeString(r), int(randEdgeInt(r)), mustRestore(t, randState(r)))
	}
}

// TestLakeStateStreamRejectsNonFinite fails the encode on a NaN or
// infinite float, where json.Marshal fails too, without panicking.
func TestLakeStateStreamRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(f *Fleet){
			"growth_per_day":      func(f *Fleet) { f.tables[0].growthPerDay = v },
			"scan_share":          func(f *Fleet) { f.tables[0].scanShare = v },
			"InitialTinyFraction": func(f *Fleet) { f.cfg.InitialTinyFraction = v },
		} {
			f := New(Config{Seed: 3, InitialTables: 4, Databases: 2}, sim.NewClock())
			set(f)
			if _, err := oracleLakeState("x", 1, f); err == nil {
				t.Fatalf("%s=%v: json.Marshal succeeded", field, v)
			}
			_, err := streamLakeState("x", 1, f)
			if err == nil || !strings.Contains(err.Error(), "unsupported value") || !strings.Contains(err.Error(), field) {
				t.Fatalf("%s=%v: stream error = %v, want an unsupported value in %s", field, v, err, field)
			}
		}
	}
}

// chunkWriter counts Write calls and keeps their bytes.
type chunkWriter struct {
	bytes.Buffer
	writes int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func bigFleet(tables int) *Fleet {
	cfg := DefaultConfig()
	cfg.InitialTables, cfg.Databases = tables, 50
	f := New(cfg, sim.NewClock())
	f.AdvanceDay()
	return f
}

// TestLakeStateStreamChunks20k streams a 20k-table lake in several
// writes whose concatenation is the oracle's bytes.
func TestLakeStateStreamChunks20k(t *testing.T) {
	f := bigFleet(20000)
	want, err := oracleLakeState("durable", 1, f)
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	if err := writeLakeState(&w, "durable", 1, f); err != nil {
		t.Fatal(err)
	}
	if w.writes < 2 {
		t.Fatalf("stream took %d writes for %d bytes, want chunks of about %d", w.writes, len(want), chunkSize)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("concatenated writes (%d bytes) differ from encoding/json (%d bytes)", w.Len(), len(want))
	}
}

// TestLakePersistAllocsFlat pins that the stream allocates the same
// per call whatever the lake's size: no per-table copy, no whole-file
// buffer.
func TestLakePersistAllocsFlat(t *testing.T) {
	allocs := func(f *Fleet) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := writeLakeState(io.Discard, "flat", 1, f); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(bigFleet(100)), allocs(bigFleet(10000))
	if small != large {
		t.Fatalf("stream allocs: %v at 100 tables, %v at 10k tables; want equal", small, large)
	}
}

// TestLakePersistFailureKeepsLastState fails a persist mid-stream and
// requires the previous cycle's state file to survive untouched, with
// no temp file left beside it.
func TestLakePersistFailureKeepsLastState(t *testing.T) {
	root := t.TempDir()
	sp := policy.DefaultSpec()
	sp.Storage = &policy.StorageSpec{Backend: policy.StorageBackendLog, Root: root, Fsync: "always"}
	cfg := DefaultConfig()
	cfg.InitialTables, cfg.Databases = 300, 6
	l, err := OpenLake("alpha", cfg, sp, SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(root, "tenants", "alpha")
	prev, err := os.ReadFile(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The last table fails, after the first chunk reached the temp file.
	if len(prev) <= chunkSize {
		t.Fatalf("state file is %d bytes; the failure must come after a %d-byte chunk", len(prev), chunkSize)
	}
	tables := l.Fleet().Tables()
	tables[len(tables)-1].growthPerDay = math.NaN()

	err = l.persist()
	if err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("persist with a NaN growth = %v, want an unsupported value error", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Fatalf("failed persist changed fleet.json (%d bytes, was %d)", len(got), len(prev))
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil || len(tmps) > 0 {
		t.Fatalf("failed persist left temp files %v (%v)", tmps, err)
	}
}

// maxFuzzDraws bounds the RNG positions the fuzz harness restores:
// Restore replays every draw, so a position near maxRestoreDraws takes
// seconds. Past maxRestoreDraws Restore must fail without replaying.
const maxFuzzDraws = 1_000_000

// FuzzLakeStateEncoding restores any input that decodes as a lake's
// state and requires the stream to equal the oracle, and decoding the
// stream and encoding again to reproduce it.
func FuzzLakeStateEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in lakeState
		if json.Unmarshal(data, &in) != nil || in.Fleet == nil {
			return
		}
		rng := in.Fleet.RNG
		hi := max(rng.Tables, rng.Writes, rng.Scans, rng.Exec)
		if hi > maxRestoreDraws {
			if _, err := Restore(in.Fleet, sim.NewClock()); err == nil {
				t.Fatalf("restore with rng %+v past the bound %d succeeded", rng, maxRestoreDraws)
			}
			return
		}
		if hi > maxFuzzDraws {
			return
		}
		fl, err := Restore(in.Fleet, sim.NewClock())
		if err != nil {
			return
		}
		want, err := oracleLakeState(in.Name, in.Day, fl)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		got, err := streamLakeState(in.Name, in.Day, fl)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stream differs from encoding/json\nwant %s\ngot  %s", want, got)
		}

		var again lakeState
		if err := json.Unmarshal(got, &again); err != nil {
			t.Fatalf("stream output does not decode: %v", err)
		}
		fl2, err := Restore(again.Fleet, sim.NewClock())
		if err != nil {
			t.Fatalf("stream output does not restore: %v", err)
		}
		got2, err := streamLakeState(again.Name, again.Day, fl2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, got) {
			t.Fatalf("decode then encode is not the identity\nfirst  %s\nsecond %s", got, got2)
		}
	})
}

// BenchmarkLakePersist encodes a 20k-table lake's state after one day:
// reflect is the json.Marshal of a snapshot the stream replaced,
// stream the encoder itself into io.Discard.
func BenchmarkLakePersist(b *testing.B) {
	f := bigFleet(20000)
	want, err := oracleLakeState("bench", 1, f)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := oracleLakeState("bench", 1, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for b.Loop() {
			if err := writeLakeState(io.Discard, "bench", 1, f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
