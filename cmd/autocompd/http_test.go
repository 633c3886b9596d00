package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"autocomp/internal/telemetry"
)

// TestServeTelemetryTimeouts pins the serving hardening: the telemetry
// server bounds slow request headers, slow request bodies and idle
// keep-alive connections, leaves writes unbounded for the long-lived
// pprof and NDJSON streams, and still answers its endpoints.
func TestServeTelemetryTimeouts(t *testing.T) {
	srv, err := serveTelemetry("127.0.0.1:0", func() telemetry.StatusSnapshot {
		return telemetry.StatusSnapshot{Policy: "probe", Day: 3}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.srv.Shutdown(context.Background())

	s := srv.srv
	if s.ReadHeaderTimeout != readHeaderTimeout || s.ReadTimeout != readTimeout || s.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts = header %v, read %v, idle %v; want %v, %v, %v",
			s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout < readHeaderTimeout || idleTimeout <= 0 {
		t.Fatalf("timeouts must be positive and read >= header: header %v, read %v, idle %v",
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Fatalf("write timeout = %v, want none (profiles and event streams run long)", s.WriteTimeout)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if got := string(get("/healthz")); got != "ok\n" {
		t.Fatalf("/healthz = %q", got)
	}
	var st telemetry.StatusSnapshot
	if err := json.Unmarshal(get("/statusz"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "probe" || st.Day != 3 {
		t.Fatalf("/statusz = %+v", st)
	}
}
