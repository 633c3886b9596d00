package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

// statusSnapshot assembles /statusz from the default tenant's snapshot
// (which, like GET /api/tenants/{t}, waits for the cycle boundary) and
// the process-wide tracer the default tenant emits on.
func statusSnapshot(def *tenant.Tenant, policyPath string) telemetry.StatusSnapshot {
	st := def.Status()
	return telemetry.StatusSnapshot{
		Policy:         st.Policy,
		PolicyPath:     policyPath,
		Day:            st.Day,
		DaysPlanned:    st.DaysPlanned,
		Done:           st.State == tenant.StateStopped,
		Cycles:         st.Cycles,
		MetricFamilies: telemetry.Default().FamilyCount(),
		LastCycle:      st.LastCycle,
		RecentCycles:   telemetry.DefaultTracer().Recent(8),
	}
}

// Server timeouts bound how long a client may hold a connection without
// progress: sending the request headers, sending the whole request, and
// idling between keep-alive requests. There is deliberately no write
// timeout: /debug/pprof/profile and the NDJSON /events streams respond
// for as long as the client asks.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer pairs the daemon's http.Server with its bound address
// (useful with ":0") so main can announce it and shut it down
// gracefully.
type httpServer struct {
	srv  *http.Server
	addr string
}

// serveTelemetry binds listen and serves /metrics (Prometheus text
// format), /statusz (JSON daemon snapshot), /healthz, the pprof suite
// under /debug/pprof/, and any extra routes register mounts (the
// management API). It serves until srv.Shutdown is called.
func serveTelemetry(listen string, status func() telemetry.StatusSnapshot, register func(*http.ServeMux)) (*httpServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(telemetry.Default()))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(status())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if register != nil {
		register(mux)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = srv.Serve(ln) }()
	return &httpServer{srv: srv, addr: ln.Addr().String()}, nil
}
