package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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

// chunkWriter counts Write calls and keeps their bytes. With failAt
// set it fails that write with err; with onWrite set it keeps what
// onWrite returns at each write in seen.
type chunkWriter struct {
	bytes.Buffer
	writes  int
	failAt  int
	err     error
	onWrite func() int
	seen    []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.onWrite != nil {
		w.seen = append(w.seen, w.onWrite())
	}
	if w.writes == w.failAt {
		return 0, w.err
	}
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
	if chunks := (20000 + chunkTables - 1) / chunkTables; w.writes != chunks {
		t.Fatalf("stream took %d writes, want one per chunk of %d tables: %d", w.writes, chunkTables, chunks)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("concatenated writes (%d bytes) differ from encoding/json (%d bytes)", w.Len(), len(want))
	}
}

// withProcs runs fn at each of GOMAXPROCS 1, 2 and 4.
func withProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	t.Helper()
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t, procs)
		})
	}
}

// requireGoroutines requires the goroutine count to come back to want.
// A helper that has closed its channel is counted until it returns, so
// the check polls until a 10 s deadline before failing: a count of
// yields is not a bound on a loaded machine under the race detector.
func requireGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the stream returned, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// propLake is the state of a lake of 13 chunks, the last one partial.
// Every 97th table carries a property that encodes to about 126 KB, so
// some chunks outgrow a chunk buffer.
func propLake() *State {
	f := bigFleet(12*chunkTables + 7)
	for i, tb := range f.tables {
		if i%97 == 3 {
			tb.SetProp("owner", strings.Repeat("<&>", 7000))
		}
	}
	return f.Snapshot()
}

// chunkedLake restores the first n tables of big.
func chunkedLake(t *testing.T, big *State, n int) *Fleet {
	t.Helper()
	st := *big
	st.Tables = st.Tables[:n]
	return mustRestore(t, &st)
}

// TestLakeStateStreamChunkBoundaries streams lakes around every chunk
// boundary at GOMAXPROCS 1, 2 and 4 and requires the oracle's bytes in
// one write per chunk, with goroutines started only at more than one
// worker.
func TestLakeStateStreamChunkBoundaries(t *testing.T) {
	big := propLake()
	sizes := []int{0, 1, chunkTables - 1, chunkTables, chunkTables + 1, 2*chunkTables + 1, len(big.Tables)}
	lakes := make([]*Fleet, len(sizes))
	wants := make([][]byte, len(sizes))
	for i, n := range sizes {
		lakes[i] = chunkedLake(t, big, n)
		var err error
		if wants[i], err = oracleLakeState("chunks", n, lakes[i]); err != nil {
			t.Fatal(err)
		}
	}
	withProcs(t, func(t *testing.T, procs int) {
		for i, n := range sizes {
			f, want := lakes[i], wants[i]
			base := runtime.NumGoroutine()
			w := chunkWriter{onWrite: func() int { return runtime.NumGoroutine() }}
			if err := writeLakeState(&w, "chunks", n, f); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("%d tables: stream (%d bytes) differs from encoding/json (%d bytes)", n, w.Len(), len(want))
			}
			chunks := max(1, (n+chunkTables-1)/chunkTables)
			if w.writes != chunks {
				t.Fatalf("%d tables: %d writes, want one per chunk: %d", n, w.writes, chunks)
			}
			// At one worker no goroutine starts. A helper of three chunks
			// or more still runs during the first write: it holds two
			// buffers, and none comes back before that write.
			if helpers := min(procs, chunks) - 1; helpers == 0 && w.seen[0] != base {
				t.Fatalf("%d tables at one worker: %d goroutines during the first write, want %d", n, w.seen[0], base)
			} else if chunks >= 3*procs && w.seen[0] != base+helpers {
				t.Fatalf("%d tables: %d goroutines during the first write, want %d", n, w.seen[0], base+helpers)
			}
			requireGoroutines(t, base)
		}
	})
}

// TestLakeStateStreamFirstErrorInTableOrder puts a NaN in two chunks of
// a lake and requires the error naming the earlier table, whichever
// worker encoded each, with every helper gone on return.
func TestLakeStateStreamFirstErrorInTableOrder(t *testing.T) {
	big := propLake()
	withProcs(t, func(t *testing.T, procs int) {
		for _, bad := range [][2]int{{len(big.Tables) - 1, -1}, {3*chunkTables + 5, 5*chunkTables + 1}, {5*chunkTables + 1, 5*chunkTables + 2}} {
			f := chunkedLake(t, big, len(big.Tables))
			f.tables[bad[0]].growthPerDay = math.NaN()
			if bad[1] >= 0 {
				f.tables[bad[1]].scanShare = math.Inf(1)
			}
			base := runtime.NumGoroutine()
			var w chunkWriter
			err := writeLakeState(&w, "nan", 1, f)
			want := fmt.Sprintf("table %s: growth_per_day: unsupported value: NaN", f.tables[bad[0]].FullName())
			if err == nil || err.Error() != want {
				t.Fatalf("NaN at table %d: error %v, want %q", bad[0], err, want)
			}
			if before := bad[0] / chunkTables; w.writes != before {
				t.Fatalf("NaN in chunk %d: %d chunks written, want the %d before it", before, w.writes, before)
			}
			requireGoroutines(t, base)
		}
	})
}

// TestLakeStateStreamWriterErrorStopsHelpers fails the writer at its
// k-th write and requires that error back, no later write, and every
// helper gone on return.
func TestLakeStateStreamWriterErrorStopsHelpers(t *testing.T) {
	big := propLake()
	errDisk := errors.New("disk full")
	withProcs(t, func(t *testing.T, procs int) {
		f := chunkedLake(t, big, len(big.Tables))
		chunks := (len(big.Tables) + chunkTables - 1) / chunkTables
		for _, k := range []int{1, 2, 3, chunks} {
			base := runtime.NumGoroutine()
			w := chunkWriter{failAt: k, err: errDisk}
			if err := writeLakeState(&w, "fail", 1, f); !errors.Is(err, errDisk) {
				t.Fatalf("writer failing at write %d: error %v, want %v", k, err, errDisk)
			}
			if w.writes != k {
				t.Fatalf("writer failing at write %d took %d writes", k, w.writes)
			}
			requireGoroutines(t, base)
		}
	})
}

// TestLakeStateStreamBuffersBounded pins the stream's memory at 4
// workers: the caller's chunk buffer and two per helper, whatever the
// lake's size.
func TestLakeStateStreamBuffersBounded(t *testing.T) {
	f := bigFleet(20000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if err := writeLakeState(io.Discard, "bounded", 1, f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// The slack covers the channels, the helpers and their goroutines.
	limit := uint64((1+2*3)*chunkBufSize + 8<<10)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > limit {
		t.Fatalf("stream allocated %d bytes a call at 4 workers, want at most %d: one buffer for the caller, two per helper", per, limit)
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
	tables := l.Fleet().Tables()
	if len(tables) <= chunkTables {
		t.Fatalf("lake has %d tables; the failure must come after a %d-table chunk", len(tables), chunkTables)
	}
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

// maxFuzzDraws bounds the sum of the RNG positions the fuzz harness
// restores: Restore replays every draw, so a sum near maxRestoreDraws
// takes seconds. Past maxRestoreDraws Restore must fail without
// replaying.
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
		// The positive positions' sum, saturated past the bound.
		rng := in.Fleet.RNG
		var total int64
		for _, pos := range []int64{rng.Tables, rng.Writes, rng.Scans, rng.Exec} {
			total = min(total+min(max(pos, 0), maxRestoreDraws+1), maxRestoreDraws+1)
		}
		if total > maxRestoreDraws {
			if _, err := Restore(in.Fleet, sim.NewClock()); err == nil {
				t.Fatalf("restore with rng %+v, past the bound %d in total, succeeded", rng, maxRestoreDraws)
			}
			return
		}
		if total > maxFuzzDraws {
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
// stream the encoder itself into io.Discard. The rows loop on b.N: with
// Go 1.24's b.Loop a sub-benchmark measures its first -cpu row at the
// GOMAXPROCS the previous row left, and the stream's speed depends on it.
func BenchmarkLakePersist(b *testing.B) {
	f := bigFleet(20000)
	want, err := oracleLakeState("bench", 1, f)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for range b.N {
			if _, err := oracleLakeState("bench", 1, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for range b.N {
			if err := writeLakeState(io.Discard, "bench", 1, f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
