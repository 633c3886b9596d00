package catalog_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autocomp/internal/catalog"
)

// FuzzCatalogRestore feeds arbitrary bytes to Restore as the store's
// _catalog.json, with a real two-table lake under the store root and a
// second lake beside it. Restore must return rather than panic, and when
// it succeeds every manifest table is restored once, and nothing else,
// each from a directory under the store root. The seeds are the
// manifest the lake wrote, one whose database name leads into the
// neighbouring lake, and one naming a table twice.
//
//	go test -run '^$' -fuzz '^FuzzCatalogRestore$' -fuzztime 20s ./internal/catalog
func FuzzCatalogRestore(f *testing.F) {
	base := f.TempDir()
	root := filepath.Join(base, "root")
	store := logLake(f, root, "sales", "orders", "refunds")
	logLake(f, filepath.Join(base, "other"), "db", "victim")
	written, err := store.ReadSubFile("_catalog.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add([]byte(`{"version":1,"databases":[{"name":"../other/db","tables":[{"name":"victim"}]}]}`))
	f.Add([]byte(`{"version":1,"databases":[{"name":"sales","tables":[{"name":"orders"},{"name":"orders"}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(root, "_catalog.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, clock := newEnv()
		cp, err := catalog.Restore(store, fs, clock)
		if err != nil {
			return
		}
		var m struct {
			Databases []struct {
				Name   string `json:"name"`
				Tables []struct {
					Name string `json:"name"`
				} `json:"tables"`
			} `json:"databases"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("Restore accepted a manifest that does not parse: %v", err)
		}
		named := make(map[[2]string]bool)
		for _, md := range m.Databases {
			for _, mt := range md.Tables {
				named[[2]string{md.Name, mt.Name}] = true
			}
		}
		tables := cp.AllTables()
		if len(tables) != len(named) {
			t.Fatalf("restored %d tables, manifest names %d", len(tables), len(named))
		}
		for _, tbl := range tables {
			if !named[[2]string{tbl.Database(), tbl.Name()}] {
				t.Fatalf("restored %s, which the manifest does not name", tbl.FullName())
			}
			rel, err := filepath.Rel(root, store.TableDir(tbl.Database(), tbl.Name()))
			if err != nil || rel == "." || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				t.Fatalf("%s restored from %s, outside the store root", tbl.FullName(), store.TableDir(tbl.Database(), tbl.Name()))
			}
		}
	})
}
