package core

import (
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/compaction"
	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

const (
	mb     = storage.MB
	target = 512 * storage.MB
)

// lake is a small simulated lake used across core tests.
type lake struct {
	clock *sim.Clock
	fs    *storage.NameNode
	cp    *catalog.ControlPlane
	comp  *cluster.Cluster
	exec  *compaction.Executor
}

func newLake(t *testing.T) *lake {
	t.Helper()
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	cp := catalog.New(fs, clock)
	comp := cluster.New(cluster.CompactionClusterConfig(), clock)
	return &lake{
		clock: clock,
		fs:    fs,
		cp:    cp,
		comp:  comp,
		exec: &compaction.Executor{
			Cluster:        comp,
			TargetFileSize: target,
			AppPrefix:      "compaction/",
		},
	}
}

// addTable creates db.name with the given per-partition small-file
// layout: parts maps partition → (count, size).
type partLayout struct {
	part  string
	count int
	size  int64
}

func (l *lake) addTable(t *testing.T, db, name string, partitioned bool, layouts []partLayout) *lst.Table {
	t.Helper()
	if _, err := l.cp.CreateDatabase(db, "tenant", 0); err != nil && err.Error() != "catalog: database already exists: "+db {
		// Ignore duplicate-database errors from repeated calls.
		_ = err
	}
	cfg := lst.TableConfig{Name: name}
	if partitioned {
		cfg.Spec = lst.PartitionSpec{Column: "d", Transform: lst.TransformMonth}
	}
	tbl, err := l.cp.CreateTable(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var specs []lst.FileSpec
	for _, pl := range layouts {
		for i := 0; i < pl.count; i++ {
			specs = append(specs, lst.FileSpec{Partition: pl.part, SizeBytes: pl.size, RowCount: pl.size / 100})
		}
	}
	if len(specs) > 0 {
		if _, err := tbl.AppendFiles(specs); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func (l *lake) connector() Connector { return CatalogConnector{CP: l.cp} }

func (l *lake) observer() StatsObserver {
	return StatsObserver{
		TargetFileSize: target,
		Quota:          l.cp.QuotaUtilization,
	}
}

// TestCandidateSizeClasses pins the sizes ROADMAP's Watch entry "Size
// classes" relies on: a Candidate fills the 208-byte allocation size
// class exactly, so one more field in it or in Stats moves every
// candidate to the 224 class, about 1.6 MB at 100k candidates.
func TestCandidateSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(Candidate{}); got != 208 {
		t.Errorf("Candidate is %d bytes, want 208: see ROADMAP Watch, \"Size classes\"", got)
	}
	if got := unsafe.Sizeof(Stats{}); got != 112 {
		t.Errorf("Stats is %d bytes, want 112: see ROADMAP Watch, \"Size classes\"", got)
	}
}

// --- generators ---

func TestTableScopeGenerator(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "a", false, []partLayout{{"", 3, 10 * mb}})
	l.addTable(t, "db1", "b", true, []partLayout{{"p1", 2, 10 * mb}, {"p2", 2, 10 * mb}})
	cands := TableScopeGenerator{}.Candidates(l.connector().Tables())
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	if cands[0].Scope != ScopeTable || cands[0].ID() != "db1.a" {
		t.Fatalf("cand = %+v", cands[0])
	}
}

func TestPartitionScopeGenerator(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "b", true, []partLayout{{"p1", 2, 10 * mb}, {"p2", 2, 10 * mb}})
	cands := PartitionScopeGenerator{}.Candidates(l.connector().Tables())
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	if cands[0].Scope != ScopePartition || cands[0].ID() != "db1.b/p1" {
		t.Fatalf("cand = %v", cands[0].ID())
	}
}

func TestHybridScopeGenerator(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "a", false, []partLayout{{"", 3, 10 * mb}})
	l.addTable(t, "db1", "b", true, []partLayout{{"p1", 2, 10 * mb}, {"p2", 2, 10 * mb}})
	cands := HybridScopeGenerator{}.Candidates(l.connector().Tables())
	// a → table scope; b → two partition scopes.
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	scopes := map[string]Scope{}
	for _, c := range cands {
		scopes[c.ID()] = c.Scope
	}
	if scopes["db1.a"] != ScopeTable || scopes["db1.b/p1"] != ScopePartition {
		t.Fatalf("scopes = %v", scopes)
	}
}

func TestSnapshotScopeGenerator(t *testing.T) {
	l := newLake(t)
	tbl := l.addTable(t, "db1", "a", false, []partLayout{{"", 3, 10 * mb}})
	l.clock.Advance(2 * time.Hour)
	tbl.AppendFiles([]lst.FileSpec{{SizeBytes: 5 * mb, RowCount: 1}})
	g := SnapshotScopeGenerator{Window: time.Hour, Now: l.clock.Now}
	cands := g.Candidates(l.connector().Tables())
	if len(cands) != 1 || cands[0].Scope != ScopeSnapshot {
		t.Fatalf("cands = %+v", cands)
	}
	fresh := cands[0].Files()
	if len(fresh) != 1 || fresh[0].SizeBytes != 5*mb {
		t.Fatalf("fresh files = %+v", fresh)
	}
}

func TestMultiGenerator(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "a", true, []partLayout{{"p1", 1, 10 * mb}})
	g := MultiGenerator{TableScopeGenerator{}, PartitionScopeGenerator{}}
	cands := g.Candidates(l.connector().Tables())
	if len(cands) != 2 {
		t.Fatalf("multi candidates = %d", len(cands))
	}
}

// --- observe & filters ---

func TestStatsObserver(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "a", true, []partLayout{
		{"p1", 4, 10 * mb},
		{"p2", 1, 600 * mb},
	})
	l.clock.Advance(time.Hour)
	cands := TableScopeGenerator{}.Candidates(l.connector().Tables())
	stats, err := l.observer().Observe(cands[0])
	if err != nil {
		t.Fatal(err)
	}
	if stats.FileCount != 5 || stats.SmallFiles != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.SmallBytes != 40*mb || stats.TotalBytes != 640*mb {
		t.Fatalf("bytes = %+v", stats)
	}
	if len(stats.FileSizes) != 5 {
		t.Fatalf("file sizes = %d", len(stats.FileSizes))
	}
}

func TestObserverPartitionScope(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "a", true, []partLayout{
		{"p1", 4, 10 * mb},
		{"p2", 7, 10 * mb},
	})
	cands := PartitionScopeGenerator{}.Candidates(l.connector().Tables())
	s0, _ := l.observer().Observe(cands[0])
	if s0.FileCount != 4 {
		t.Fatalf("p1 stats = %+v", s0)
	}
}

func TestFilters(t *testing.T) {
	l := newLake(t)
	young := l.addTable(t, "db1", "young", false, []partLayout{{"", 5, 10 * mb}})
	l.clock.Advance(48 * time.Hour)
	old := l.addTable(t, "db1", "old", false, []partLayout{{"", 5, 10 * mb}})
	_ = young
	_ = old

	cands := TableScopeGenerator{}.Candidates(l.connector().Tables())
	for _, c := range cands {
		s, _ := l.observer().Observe(c)
		c.Stats = s
	}

	// MinTableAge drops the fresh table ("old" was created at t=48h and
	// last written then; "young" at t=0).
	kept := ApplyFilters(cands, []Filter{MinTableAge{Min: 24 * time.Hour, Now: l.clock.Now}})
	if len(kept) != 1 || kept[0].ID() != "db1.young" {
		t.Fatalf("age filter kept %d", len(kept))
	}

	// QuietWindow drops recently written tables.
	kept = ApplyFilters(cands, []Filter{QuietWindow{Min: time.Hour, Now: l.clock.Now}})
	if len(kept) != 1 || kept[0].ID() != "db1.young" {
		t.Fatalf("quiet filter kept %v", len(kept))
	}

	// MinSmallFiles.
	kept = ApplyFilters(cands, []Filter{MinSmallFiles{Min: 6}})
	if len(kept) != 0 {
		t.Fatalf("small-files filter kept %d", len(kept))
	}

	// MinTotalBytes.
	kept = ApplyFilters(cands, []Filter{MinTotalBytes{Min: 40 * mb}})
	if len(kept) != 2 {
		t.Fatalf("bytes filter kept %d", len(kept))
	}

	// FilterFunc adapter.
	kept = ApplyFilters(cands, []Filter{FilterFunc{FilterName: "none", Fn: func(*Candidate) bool { return false }}})
	if len(kept) != 0 {
		t.Fatal("filter func ignored")
	}
}

// TestApplyFiltersKeepsInput requires ApplyFilters to return its input,
// allocating nothing, when every candidate passes, and otherwise to
// return the kept candidates in order with the input untouched.
func TestApplyFiltersKeepsInput(t *testing.T) {
	cands := make([]*Candidate, 7)
	for i := range cands {
		cands[i] = &Candidate{Stats: Stats{SmallFiles: i}}
	}
	orig := slices.Clone(cands)
	pass := []Filter{MinSmallFiles{Min: 0}, FilterFunc{FilterName: "all", Fn: func(*Candidate) bool { return true }}}
	if kept := ApplyFilters(cands, pass); len(kept) != len(cands) || &kept[0] != &cands[0] {
		t.Fatalf("every candidate passed, but ApplyFilters returned a new slice of %d", len(kept))
	}
	if allocs := testing.AllocsPerRun(20, func() { ApplyFilters(cands, pass) }); allocs != 0 {
		t.Fatalf("ApplyFilters allocated %v times with every candidate passing", allocs)
	}
	for name, keep := range map[string]func(i int) bool{
		"first dropped": func(i int) bool { return i != 0 },
		"one dropped":   func(i int) bool { return i != 3 },
		"last dropped":  func(i int) bool { return i != 6 },
		"odd dropped":   func(i int) bool { return i%2 == 0 },
		"all dropped":   func(int) bool { return false },
	} {
		var want []*Candidate
		for i, c := range cands {
			if keep(i) {
				want = append(want, c)
			}
		}
		drop := FilterFunc{FilterName: name, Fn: func(c *Candidate) bool { return keep(c.Stats.SmallFiles) }}
		kept := ApplyFilters(cands, append(pass, drop))
		if !slices.Equal(kept, want) {
			t.Fatalf("%s: kept %d candidates, want %d in order", name, len(kept), len(want))
		}
		if !slices.Equal(cands, orig) {
			t.Fatalf("%s: ApplyFilters modified its input", name)
		}
	}
}

func TestNotIntermediateFilter(t *testing.T) {
	l := newLake(t)
	l.cp.CreateDatabase("db2", "t", 0)
	tbl, err := l.cp.CreateTable("db2", lst.TableConfig{
		Name:  "scratch",
		Props: map[string]string{"intermediate": "true"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl
	cands := TableScopeGenerator{}.Candidates(l.connector().Tables())
	kept := ApplyFilters(cands, []Filter{NotIntermediate{}})
	if len(kept) != 0 {
		t.Fatalf("intermediate not filtered: %d", len(kept))
	}
}

func TestMaxTraitValueFilter(t *testing.T) {
	c := &Candidate{Traits: []float64{SlotComputeCost: 100}}
	f := MaxTraitValue{TraitName: "compute_cost_gbhr", Slot: SlotComputeCost, Max: 50}
	if f.Keep(c) {
		t.Fatal("over-budget candidate kept")
	}
	c.Traits[SlotComputeCost] = 10
	if !f.Keep(c) {
		t.Fatal("cheap candidate dropped")
	}
}

// --- traits ---

func TestFileCountReductionTrait(t *testing.T) {
	c := &Candidate{Stats: Stats{FileCount: 10, SmallFiles: 7}}
	if v := (FileCountReduction{}).Value(c); v != 7 {
		t.Fatalf("ΔF = %v", v)
	}
	if v := (RelativeFileCountReduction{}).Value(c); v != 0.7 {
		t.Fatalf("relative ΔF = %v", v)
	}
	empty := &Candidate{}
	if v := (RelativeFileCountReduction{}).Value(empty); v != 0 {
		t.Fatalf("empty relative = %v", v)
	}
}

func TestComputeCostTrait(t *testing.T) {
	// GBHr = mem × bytes/throughput: 64 × (100GB / 200GB/hr) = 32.
	tr := ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: 200 * float64(storage.GB)}
	c := &Candidate{Stats: Stats{SmallBytes: 100 * storage.GB}}
	if v := tr.Value(c); v != 32 {
		t.Fatalf("GBHr = %v", v)
	}
	if v := (ComputeCost{}).Value(c); v != 0 {
		t.Fatalf("zero-throughput cost = %v", v)
	}
	if (ComputeCost{}).Direction() != Cost {
		t.Fatal("compute cost direction")
	}
}

func TestFileEntropyTrait(t *testing.T) {
	tr := FileEntropy{TargetFileSize: target}
	perfect := &Candidate{Stats: Stats{FileSizes: []int64{target, 2 * target}}}
	if v := tr.Value(perfect); v != 0 {
		t.Fatalf("perfect layout entropy = %v", v)
	}
	// Many tiny files → high entropy; fewer/larger → lower.
	frag := &Candidate{Stats: Stats{FileSizes: []int64{mb, mb, mb, mb}}}
	mild := &Candidate{Stats: Stats{FileSizes: []int64{400 * mb, 400 * mb}}}
	if tr.Value(frag) <= tr.Value(mild) {
		t.Fatalf("entropy ordering: frag %v <= mild %v", tr.Value(frag), tr.Value(mild))
	}
	if (FileEntropy{}).Value(frag) != 0 {
		t.Fatal("zero-target entropy should be 0")
	}
}

func TestQuotaAndDeltaTraits(t *testing.T) {
	c := &Candidate{Stats: Stats{QuotaUtilization: 0.8, DeltaFiles: 3}}
	if (QuotaPressure{}).Value(c) != 0.8 {
		t.Fatal("quota trait")
	}
	if (DeltaFileDebt{}).Value(c) != 3 {
		t.Fatal("delta trait")
	}
}

func TestTraitFunc(t *testing.T) {
	tf := TraitFunc{TraitName: "x", Dir: Cost, Fn: func(*Candidate) float64 { return 5 }}
	if tf.Name() != "x" || tf.Direction() != Cost || tf.Value(nil) != 5 {
		t.Fatal("trait func")
	}
}

func TestOrientComputesAllTraits(t *testing.T) {
	c := &Candidate{Stats: Stats{SmallFiles: 3, SmallBytes: 30 * mb, FileCount: 4}}
	set, err := NewTraitSet([]Trait{
		RelativeFileCountReduction{},
		ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: float64(storage.GB)},
		FileCountReduction{},
	})
	if err != nil {
		t.Fatal(err)
	}
	Orient([]*Candidate{c}, set)
	if c.TraitSet != set || len(c.Traits) != 4 {
		t.Fatalf("set %p, traits = %v", c.TraitSet, c.Traits)
	}
	if c.Trait(SlotFileCountReduction) != 3 {
		t.Fatalf("traits = %v", c.Traits)
	}
	if c.Trait(SlotComputeCost) == 0 {
		t.Fatal("cost trait missing")
	}
	if c.Trait(SlotMetadataReduction) != 0 {
		t.Fatalf("uncomputed metadata slot = %v", c.Trait(SlotMetadataReduction))
	}
	if got := c.Trait(set.Slot("relative_file_count_reduction")); got != 0.75 {
		t.Fatalf("relative ΔF = %v", got)
	}
	if c.Trait(set.Slot("file_entropy")) != 0 {
		t.Fatal("a trait outside the set must read 0")
	}
}

// TestTraitSetNumbering pins slot numbering: the three fixed slots
// first whether or not the list computes them, then the list's other
// traits in list order, and a repeated name rejected.
func TestTraitSetNumbering(t *testing.T) {
	set, err := NewTraitSet([]Trait{FileEntropy{}, ComputeCost{}, QuotaPressure{}, FileCountReduction{}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"file_count_reduction", "metadata_reduction", "compute_cost_gbhr", "file_entropy", "quota_pressure"}
	if set.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", set.Len(), len(want))
	}
	for slot, name := range want {
		if got := set.Slot(name); got != slot {
			t.Fatalf("Slot(%s) = %d, want %d", name, got, slot)
		}
	}
	if set.Computes("metadata_reduction") || !set.Computes("compute_cost_gbhr") || !set.Computes("file_entropy") {
		t.Fatal("Computes must list exactly the traits given")
	}
	if set.Slot("delta_file_debt") != -1 || (*TraitSet)(nil).Slot("file_count_reduction") != -1 {
		t.Fatal("a missing trait must have slot -1")
	}
	for _, dup := range [][]Trait{
		{FileCountReduction{}, FileCountReduction{}},
		{FileEntropy{}, ComputeCost{}, FileEntropy{TargetFileSize: 1}},
	} {
		if _, err := NewTraitSet(dup); err == nil || !strings.Contains(err.Error(), dup[0].Name()) {
			t.Fatalf("duplicate %s: err = %v", dup[0].Name(), err)
		}
	}
}

// TestOrientAllocsFlat guards Orient's one slab per call: the
// allocations it makes do not grow with the pool.
func TestOrientAllocsFlat(t *testing.T) {
	set, err := NewTraitSet([]Trait{
		FileCountReduction{}, MetadataReduction{},
		ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: 1e12}, FileEntropy{TargetFileSize: target},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := func(n int) []*Candidate {
		cands := make([]*Candidate, n)
		for i := range cands {
			cands[i] = &Candidate{Stats: Stats{SmallFiles: i, SmallBytes: int64(i) * mb, FileSizes: []int64{mb, target}}}
		}
		return cands
	}
	small, large := pool(10), pool(10_000)
	a := testing.AllocsPerRun(20, func() { Orient(small, set) })
	b := testing.AllocsPerRun(20, func() { Orient(large, set) })
	if a != b || b > 1 {
		t.Fatalf("Orient allocs: %v at 10 candidates, %v at 10k; want one, flat", a, b)
	}
}
