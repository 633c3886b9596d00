package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// TestPersistInspectCommand persists a table through the log backend and
// checks that `lakectl inspect <table-dir>` replays it and prints the
// recovered state.
func TestPersistInspectCommand(t *testing.T) {
	root := t.TempDir()
	store, err := lstlog.Open(lstlog.Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	cp, err := catalog.Restore(store, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateDatabase("sales", "tenant-a", 0); err != nil {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable("sales", lst.TableConfig{Name: "orders"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		clock.Advance(time.Minute)
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: 4 * storage.MB, RowCount: 500}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() {
		inspectCmd([]string{filepath.Join(root, "sales", "orders")})
	})
	for _, want := range []string{"table      sales.orders", "version    ", "files      6 live"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
