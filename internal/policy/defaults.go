package policy

// DefaultSpec returns the unified-maintenance pipeline autocompd runs
// by default: table-scope candidates, per-action admission filters, the
// three-objective MOOP (ΔF 0.5, ΔM 0.2, GBHr 0.3), a 50 TBHr budget
// selector, the default maintenance policy, and an 8-worker/4-shard
// execution plane. examples/policies/default.json is this spec on disk,
// and a test pins the two together.
func DefaultSpec() *Spec {
	return &Spec{
		Name:        "default",
		Description: "Unified maintenance: data compaction + metadata actions in one MOOP under one budget",
		Generators:  []Component{C("table-scope")},
		StatsFilters: []Component{
			{Name: "for-action", Params: map[string]any{
				"action": "data-compaction",
				"filter": map[string]any{
					"name":   "min-small-files",
					"params": map[string]any{"min": float64(2)},
				},
			}},
			{Name: "min-metadata-reduction", Params: map[string]any{"min": float64(1)}},
		},
		Traits: []Component{
			C("file_count_reduction"), C("metadata_reduction"), C("compute_cost_gbhr"),
		},
		Objectives: []ObjectiveSpec{
			{Trait: C("file_count_reduction"), Weight: 0.5},
			{Trait: C("metadata_reduction"), Weight: 0.2},
			{Trait: C("compute_cost_gbhr"), Weight: 0.3},
		},
		Selector: &Component{Name: "budget", Params: map[string]any{"budget_gbhr": float64(50 * 1024)}},
		Maintenance: &MaintenanceSpec{
			RetainSnapshots:         20,
			CheckpointEveryVersions: 100,
			MinManifestSurplus:      8,
		},
		Execution: &ExecutionSpec{Workers: 8, Shards: 4},
	}
}

// DefaultDataSpec returns the data-compaction-only production pipeline
// of §7: ΔF and GBHr objectives, quota-adaptive weights when
// quotaAdaptive is set (w1 = 0.5·(1+quota)) or the 0.7/0.3 static split
// otherwise. The caller sets the selector.
func DefaultDataSpec(quotaAdaptive bool) *Spec {
	s := &Spec{
		Name:         "data-only",
		Description:  "Data compaction only: ΔF vs GBHr MOOP at table scope",
		Generators:   []Component{C("table-scope")},
		StatsFilters: []Component{{Name: "min-small-files", Params: map[string]any{"min": float64(2)}}},
		Traits:       []Component{C("file_count_reduction"), C("compute_cost_gbhr")},
	}
	if quotaAdaptive {
		s.QuotaAdaptive = true
		s.Objectives = []ObjectiveSpec{
			{Trait: C("file_count_reduction")},
			{Trait: C("compute_cost_gbhr")},
		}
	} else {
		s.Objectives = []ObjectiveSpec{
			{Trait: C("file_count_reduction"), Weight: 0.7},
			{Trait: C("compute_cost_gbhr"), Weight: 0.3},
		}
	}
	return s
}
