package policy

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Diff returns a field-wise comparison of two specs as sorted
// "path: a -> b" lines (empty when the specs are semantically equal).
// It compares the marshaled forms, so formatting and field order do not
// register as differences.
func Diff(a, b *Spec) []string {
	fa, fb := flattenSpec(a), flattenSpec(b)
	keys := make(map[string]bool, len(fa)+len(fb))
	for k := range fa {
		keys[k] = true
	}
	for k := range fb {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		va, oka := fa[k]
		vb, okb := fb[k]
		switch {
		case !oka:
			out = append(out, fmt.Sprintf("%s: (unset) -> %s", k, vb))
		case !okb:
			out = append(out, fmt.Sprintf("%s: %s -> (unset)", k, va))
		case va != vb:
			out = append(out, fmt.Sprintf("%s: %s -> %s", k, va, vb))
		}
	}
	sort.Strings(out)
	return out
}

// flattenSpec renders a spec as path→scalar pairs ("selector.params.k":
// "10", "stats_filters[0]": `"min-small-files"`).
func flattenSpec(s *Spec) map[string]string {
	out := make(map[string]string)
	if s == nil {
		return out
	}
	b, err := json.Marshal(s)
	if err != nil {
		return out
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return out
	}
	flattenValue("", v, out)
	return out
}

func flattenValue(path string, v any, out map[string]string) {
	switch t := v.(type) {
	case map[string]any:
		for k, sub := range t {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flattenValue(p, sub, out)
		}
	case []any:
		for i, sub := range t {
			flattenValue(fmt.Sprintf("%s[%d]", path, i), sub, out)
		}
	default:
		b, _ := json.Marshal(v)
		out[path] = string(b)
	}
}

// Describe renders a one-screen operator summary of a spec: the
// pipeline stages in OODA order with their parameters, then the
// enabled planes and override layers.
func Describe(s *Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s\n", s.DisplayName())
	if s.Description != "" {
		fmt.Fprintf(&b, "  %s\n", s.Description)
	}
	comps := func(label string, cs []Component) {
		if len(cs) == 0 {
			return
		}
		parts := make([]string, len(cs))
		for i, c := range cs {
			parts[i] = describeComponent(c)
		}
		fmt.Fprintf(&b, "  %-14s %s\n", label+":", strings.Join(parts, ", "))
	}
	comps("generators", s.Generators)
	comps("pre-filters", s.PreFilters)
	comps("stats-filters", s.StatsFilters)
	comps("trait-filters", s.TraitFilters)
	comps("traits", s.Traits)
	if len(s.Objectives) > 0 {
		parts := make([]string, len(s.Objectives))
		for i, o := range s.Objectives {
			if s.QuotaAdaptive {
				parts[i] = o.Trait.Name
			} else {
				parts[i] = fmt.Sprintf("%s×%.2f", o.Trait.Name, o.Weight)
			}
		}
		mode := "static weights"
		if s.QuotaAdaptive {
			mode = "quota-adaptive weights"
		}
		fmt.Fprintf(&b, "  %-14s %s (%s)\n", "objectives:", strings.Join(parts, " + "), mode)
	}
	if s.Threshold != nil {
		fmt.Fprintf(&b, "  %-14s %s >= %g\n", "threshold:", s.Threshold.Trait.Name, s.Threshold.Min)
	}
	if s.Selector != nil {
		fmt.Fprintf(&b, "  %-14s %s\n", "selector:", describeComponent(*s.Selector))
	}
	if m := s.Maintenance; m != nil {
		fmt.Fprintf(&b, "  %-14s retain %d snapshots, checkpoint every %d versions, manifest surplus %d\n",
			"maintenance:", m.RetainSnapshots, m.CheckpointEveryVersions, m.MinManifestSurplus)
	}
	if e := s.Execution; e != nil {
		fmt.Fprintf(&b, "  %-14s %d workers, %d shards, %.0f GBHr/shard\n",
			"execution:", e.Workers, e.Shards, e.ShardBudgetGBHr)
	}
	if t := s.Trigger; t != nil {
		fmt.Fprintf(&b, "  %-14s every %d commits / %d bytes, reconcile every %d cycles\n",
			"trigger:", t.EveryCommits, t.BytesWritten, t.ReconcileEvery)
	}
	if st := s.Storage; st != nil && st.Backend != "" {
		line := st.Backend
		if st.Durable() {
			fsync := st.Fsync
			if fsync == "" {
				fsync = "none"
			}
			line = fmt.Sprintf("%s at %s (fsync %s)", st.Backend, st.Root, fsync)
		}
		fmt.Fprintf(&b, "  %-14s %s\n", "storage:", line)
	}
	if len(s.Databases) > 0 || len(s.Tables) > 0 {
		fmt.Fprintf(&b, "  %-14s %d database, %d table patches\n",
			"overrides:", len(s.Databases), len(s.Tables))
	}
	return b.String()
}

func describeComponent(c Component) string {
	if len(c.Params) == 0 {
		return c.Name
	}
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		b, _ := json.Marshal(c.Params[k])
		parts[i] = fmt.Sprintf("%s=%s", k, b)
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, " "))
}
