package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"autocomp/internal/telemetry"
)

// statusCmd scrapes a running autocompd's /statusz endpoint and renders
// the operator view: daemon identity, progress, and the recent decision
// trace in the same per-cycle format the daemon logs.
func statusCmd(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	raw := fs.Bool("json", false, "print the raw /statusz JSON instead of the summary")
	timeout := fs.Duration("timeout", 5*time.Second, "HTTP timeout")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lakectl status [-json] [-timeout d] <host:port>")
		fmt.Fprintln(os.Stderr, "scrapes /statusz from an autocompd started with -listen")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	addr := fs.Arg(0)
	if addr == "" {
		fs.Usage()
		os.Exit(2)
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(addr + "/statusz")
	if err != nil {
		log.Fatalf("lakectl status: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("lakectl status: reading response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("lakectl status: %s returned %s", addr, resp.Status)
	}
	if *raw {
		os.Stdout.Write(body)
		return
	}
	var st telemetry.StatusSnapshot
	if err := json.Unmarshal(body, &st); err != nil {
		log.Fatalf("lakectl status: decoding /statusz: %v", err)
	}

	state := "running"
	if st.Done {
		state = "done"
	}
	fmt.Printf("autocompd @ %s\n", strings.TrimPrefix(addr, "http://"))
	fmt.Printf("  policy:  %s", st.Policy)
	if st.PolicyPath != "" {
		fmt.Printf(" (%s)", st.PolicyPath)
	}
	fmt.Println()
	fmt.Printf("  day:     %d/%d (%s)\n", st.Day, st.DaysPlanned, state)
	fmt.Printf("  cycles:  %d traced, %d metric families on /metrics\n", st.Cycles, st.MetricFamilies)
	if ev := st.LastCycle; ev != nil {
		fmt.Printf("  fleet:   %d tables, %d files, %d metadata objects (%.0f%% tiny)\n",
			ev.Fleet.Tables, ev.Fleet.Files, ev.Fleet.MetaObjects, 100*ev.Fleet.TinyFrac)
	}
	if len(st.RecentCycles) > 0 {
		fmt.Println("\nrecent cycles:")
		for _, ev := range st.RecentCycles {
			fmt.Println(ev.String())
		}
	}
}
