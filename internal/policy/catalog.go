package policy

import (
	"autocomp/internal/catalog"
	"autocomp/internal/compaction"
	"autocomp/internal/core"
)

// CatalogSubstrate returns the compilation environment and bindings of
// a per-file catalog lake, the catalog-side twin of the fleet's
// PolicyEnv and PolicyBindings. The environment carries the control
// plane's clock, the executor's target file size and its cluster's §4.2
// pricing; the bindings enumerate the catalog's tables, observe them
// with per-database quota, rewrite them on the executor, and layer the
// catalog's stored policies over the spec's overrides.
func CatalogSubstrate(cp *catalog.ControlPlane, exec *compaction.Executor) (Env, Bindings) {
	env := Env{
		Now:                 cp.Clock().Now,
		TargetFileSize:      exec.TargetFileSize,
		ExecutorMemoryGB:    exec.Cluster.ExecutorMemoryGB(),
		RewriteBytesPerHour: exec.Cluster.RewriteBytesPerHour(),
	}
	return env, Bindings{
		Connector: core.CatalogConnector{CP: cp},
		Observer: core.StatsObserver{
			TargetFileSize: exec.TargetFileSize,
			Quota:          cp.QuotaUtilization,
		},
		Runner:  core.ExecutorRunner{Exec: exec},
		Catalog: cp,
	}
}
