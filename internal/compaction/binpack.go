// Package compaction implements the compaction primitive the paper's act
// phase executes: Iceberg-style rewriteDataFiles. Small files are grouped
// with first-fit-decreasing bin packing up to a target file size and each
// group is rewritten into a single larger file via the LST's optimistic
// rewrite commit (which may conflict, §4.4).
//
// The executor runs the rewrite as a job on a compute cluster, so every
// compaction has a measured duration and GBHr cost; it also records the
// estimate-vs-actual gap the paper analyzes in §7 (Model Accuracy).
package compaction

import (
	"sort"

	"autocomp/internal/lst"
)

// Group is one bin of input files that will be rewritten into one output
// file.
type Group struct {
	Files []lst.DataFile
	Bytes int64
	Rows  int64
}

// Plan is a bin-packing plan over one partition (or an unpartitioned
// table's whole file set).
type Plan struct {
	Groups []Group
	// InputFiles counts files across all groups (singletons excluded).
	InputFiles int
	InputBytes int64
}

// OutputFiles returns how many files the plan produces.
func (p Plan) OutputFiles() int { return len(p.Groups) }

// Reduction returns the net file-count reduction the plan achieves.
func (p Plan) Reduction() int { return p.InputFiles - len(p.Groups) }

// PlanBinPack groups files into bins of at most target bytes using
// first-fit decreasing. Groups that end up with a single non-delta file
// are dropped: rewriting one file into one file yields no benefit. Delta
// files are always rewritten (merge-on-read debt must be merged), so a
// singleton group is kept when it contains a delta.
//
// Files of size >= target are never inputs here; callers filter to small
// files first (SelectSmall).
func PlanBinPack(files []lst.DataFile, target int64) Plan {
	if target <= 0 {
		panic("compaction: non-positive target file size")
	}
	sorted := make([]lst.DataFile, len(files))
	copy(sorted, files)
	// Decreasing size; ties broken by path for determinism (NFR2).
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].SizeBytes != sorted[j].SizeBytes {
			return sorted[i].SizeBytes > sorted[j].SizeBytes
		}
		return sorted[i].Path < sorted[j].Path
	})

	var bins []Group
	for _, f := range sorted {
		placed := false
		for i := range bins {
			if bins[i].Bytes+f.SizeBytes <= target {
				bins[i].Files = append(bins[i].Files, f)
				bins[i].Bytes += f.SizeBytes
				bins[i].Rows += f.RowCount
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, Group{
				Files: []lst.DataFile{f},
				Bytes: f.SizeBytes,
				Rows:  f.RowCount,
			})
		}
	}

	var plan Plan
	for _, b := range bins {
		if len(b.Files) == 1 && !b.Files[0].IsDelta {
			continue // no gain from rewriting a lone data file
		}
		plan.Groups = append(plan.Groups, b)
		plan.InputFiles += len(b.Files)
		plan.InputBytes += b.Bytes
	}
	return plan
}

// SelectSmall returns the files smaller than threshold plus all delta
// files (which compaction must merge regardless of size).
func SelectSmall(files []lst.DataFile, threshold int64) []lst.DataFile {
	var out []lst.DataFile
	for _, f := range files {
		if f.SizeBytes < threshold || f.IsDelta {
			out = append(out, f)
		}
	}
	return out
}
