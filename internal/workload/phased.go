package workload

import (
	"autocomp/internal/engine"
	"autocomp/internal/lst"
	"autocomp/internal/storage"
)

// Phase is one stage of an LST-Bench-style phased workload.
type Phase struct {
	Name string
	// Queries run back to back within the phase.
	Queries []QueryTemplate
	// Repeat runs the phase's query list this many times (min 1).
	Repeat int
}

// PhasedWorkload is an LST-Bench workload: an ordered list of phases over
// one database (§6.3 runs TPC-DS WP1, TPC-DS WP3, and TPC-H).
type PhasedWorkload struct {
	Name   string
	Tables []TableDef
	// RawBytes is the initial load volume (scale factor).
	RawBytes int64
	// LoadParallelism is the loader's writer parallelism.
	LoadParallelism int
	// Months of partition history for partitioned tables.
	Months int
	Phases []Phase
	// SeparateWriteCluster models WP3: one cluster handles all writes
	// while another handles all reads, minimizing resource contention.
	SeparateWriteCluster bool
}

// tpcdsTables is a compact TPC-DS-like schema: one large partitioned fact
// table, one unpartitioned fact table, and dimensions.
func tpcdsTables() []TableDef {
	return []TableDef{
		{
			Name:        "store_sales",
			Spec:        PartitionSpecMonthly("ss_sold_date"),
			ShareOfData: 0.55,
		},
		{
			Name:        "web_sales",
			Spec:        PartitionSpecMonthly("ws_sold_date"),
			ShareOfData: 0.25,
		},
		{Name: "inventory", ShareOfData: 0.12},
		{Name: "customer", ShareOfData: 0.05},
		{Name: "item", ShareOfData: 0.03},
	}
}

// PartitionSpecMonthly returns a monthly partition spec on column.
func PartitionSpecMonthly(column string) lst.PartitionSpec {
	return lst.PartitionSpec{Column: column, Transform: lst.TransformMonth}
}

// readPhase builds a single-user read phase over the given tables.
func readPhase(name string, repeat int) Phase {
	return Phase{
		Name:   name,
		Repeat: repeat,
		Queries: []QueryTemplate{
			{Name: "q_fact_recent", Kind: engine.Read, Table: "store_sales", ScanFraction: 0.15, RecentPartitions: 3},
			{Name: "q_fact_full", Kind: engine.Read, Table: "store_sales", ScanFraction: 0.05},
			{Name: "q_web", Kind: engine.Read, Table: "web_sales", ScanFraction: 0.10, RecentPartitions: 2},
			{Name: "q_inventory", Kind: engine.Read, Table: "inventory", ScanFraction: 0.20},
			{Name: "q_dim", Kind: engine.Read, Table: "customer", ScanFraction: 0.50},
		},
	}
}

// maintenancePhase modifies about modFrac of the fact data via deletes
// and inserts (the paper's Figure 3 maintenance phase modifies ~3%).
func maintenancePhase(name string, modFrac float64) Phase {
	return Phase{
		Name:   name,
		Repeat: 1,
		Queries: []QueryTemplate{
			{Name: "dm_delete_ss", Kind: engine.Delete, Table: "store_sales", ModifyFraction: modFrac, RecentPartitions: 4},
			{Name: "dm_insert_ss", Kind: engine.Insert, Table: "store_sales", WriteBytes: 0 /* set by scale */, RecentPartitions: 2},
			{Name: "dm_update_ws", Kind: engine.Update, Table: "web_sales", ModifyFraction: modFrac, RecentPartitions: 3},
			{Name: "dm_insert_inv", Kind: engine.Insert, Table: "inventory", WriteBytes: 0},
		},
	}
}

// scaleMaintenance fills in maintenance insert volumes proportional to
// raw size.
func scaleMaintenance(p Phase, raw int64) Phase {
	for i := range p.Queries {
		if p.Queries[i].Kind == engine.Insert && p.Queries[i].WriteBytes == 0 {
			p.Queries[i].WriteBytes = raw / 100
		}
	}
	return p
}

// TPCDSWP1 is LST-Bench's WP1: a long-running workload alternating
// single-user reads with frequent data-maintenance phases on one cluster.
func TPCDSWP1(rawBytes int64) PhasedWorkload {
	w := PhasedWorkload{
		Name:            "tpcds-wp1",
		Tables:          tpcdsTables(),
		RawBytes:        rawBytes,
		LoadParallelism: 250,
		Months:          12,
	}
	w.Phases = append(w.Phases, readPhase("single-user-1", 2))
	for i := 0; i < 4; i++ {
		w.Phases = append(w.Phases,
			scaleMaintenance(maintenancePhase("maintenance", 0.03), rawBytes),
			readPhase("single-user", 2),
		)
	}
	return w
}

// TPCDSWP3 is LST-Bench's WP3: one compute cluster handles all writes
// while another handles all reads.
func TPCDSWP3(rawBytes int64) PhasedWorkload {
	w := TPCDSWP1(rawBytes)
	w.Name = "tpcds-wp3"
	w.SeparateWriteCluster = true
	return w
}

// TPCH is the TPC-H workload: a load, a long data-modification phase
// (refresh functions on unpartitioned tables), then the query suite. Its
// non-partitioned tables make compaction rewrite whole tables, which is
// why auto-compaction does not pay off for it (§6.3).
func TPCH(rawBytes int64) PhasedWorkload {
	tables := TPCHTables()
	// TPC-H refreshes hit orders/lineitem; the paper notes compaction of
	// non-partitioned tables rewrites the entire table. Emphasize the
	// unpartitioned path by making orders carry more data.
	for i := range tables {
		if tables[i].Name == "orders" {
			tables[i].ShareOfData = 0.30
		}
		if tables[i].Name == "lineitem" {
			tables[i].ShareOfData = 0.57
		}
	}
	// TPC-H starts from a tuned dbgen bulk load: files arrive near the
	// target size, so there is little for compaction to heal — and
	// compacting the non-partitioned tables means rewriting them
	// entirely (§6.3's explanation for why the default wins here).
	loadPar := int(rawBytes / (512 << 20))
	if loadPar < 8 {
		loadPar = 8
	}
	w := PhasedWorkload{
		Name:            "tpch",
		Tables:          tables,
		RawBytes:        rawBytes,
		LoadParallelism: loadPar,
		Months:          12,
	}
	// TPC-H's refresh functions are part of the benchmark kit and write
	// at moderate parallelism; the long modification phase dominates
	// end-to-end time (§6.3).
	mod := Phase{
		Name:   "refresh",
		Repeat: 10,
		Queries: []QueryTemplate{
			{Name: "rf_insert_orders", Kind: engine.Insert, Table: "orders", WriteBytes: rawBytes / 150, Parallelism: 16},
			{Name: "rf_insert_lineitem", Kind: engine.Insert, Table: "lineitem", WriteBytes: rawBytes / 100, RecentPartitions: 1, Parallelism: 16},
			{Name: "rf_delete_orders", Kind: engine.Delete, Table: "orders", ModifyFraction: 0.01, Parallelism: 16},
		},
	}
	queries := Phase{
		Name:   "power",
		Repeat: 1,
		Queries: []QueryTemplate{
			{Name: "q1", Kind: engine.Read, Table: "lineitem", ScanFraction: 0.30},
			{Name: "q3", Kind: engine.Read, Table: "orders", ScanFraction: 0.40},
			{Name: "q6", Kind: engine.Read, Table: "lineitem", ScanFraction: 0.10, RecentPartitions: 4},
			{Name: "q12", Kind: engine.Read, Table: "orders", ScanFraction: 0.25},
		},
	}
	w.Phases = []Phase{mod, queries, mod, queries}
	return w
}

// SizeOfShare returns share × raw bytes, floored at one file's worth.
func SizeOfShare(raw int64, share float64) int64 {
	b := int64(float64(raw) * share)
	if b < storage.MB {
		b = storage.MB
	}
	return b
}

// TotalQueries returns the number of query executions a phased workload
// performs (phases × repeats × queries).
func (w PhasedWorkload) TotalQueries() int {
	n := 0
	for _, p := range w.Phases {
		r := p.Repeat
		if r < 1 {
			r = 1
		}
		n += r * len(p.Queries)
	}
	return n
}
