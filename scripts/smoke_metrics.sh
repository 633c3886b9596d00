#!/usr/bin/env bash
# Telemetry-plane smoke test: boot autocompd with -listen on an ephemeral
# port, wait for the short run to complete, then verify the operational
# endpoints end to end — /healthz answers, /metrics speaks Prometheus
# text format with every instrumented layer represented, /statusz carries
# the decision trace, and `lakectl status` can render it.
#
# Run from the repository root: ./scripts/smoke_metrics.sh
set -eu

workdir=$(mktemp -d)
log="$workdir/autocompd.log"
metrics="$workdir/metrics.txt"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/autocompd" ./cmd/autocompd

"$workdir/autocompd" -days 2 -listen 127.0.0.1:0 >"$log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^telemetry: listening on \([0-9.:]*\).*/\1/p' "$log")
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "smoke: autocompd exited before announcing its address"; cat "$log"; exit 1; }
  sleep 0.2
done
[ -n "$addr" ] || { echo "smoke: autocompd never announced its listen address"; cat "$log"; exit 1; }
echo "smoke: autocompd telemetry on $addr"

# Wait for the run to finish so every instrumented layer has published.
for _ in $(seq 1 300); do
  grep -q "run complete" "$log" && break
  sleep 0.2
done
grep -q "run complete" "$log" || { echo "smoke: run never completed"; cat "$log"; exit 1; }

# /healthz
curl -fsS "http://$addr/healthz" | grep -qx "ok" || { echo "smoke: /healthz did not answer ok"; exit 1; }
echo "smoke: /healthz ok"

# /metrics: Prometheus exposition with every layer's families present.
curl -fsS "http://$addr/metrics" >"$metrics"
for fam in \
  autocomp_core_cycles_total \
  autocomp_core_observe_calls_total \
  autocomp_core_actions_total \
  autocomp_sched_jobs_total \
  autocomp_sched_cycle_makespan_seconds \
  autocomp_changefeed_events_total \
  autocomp_changefeed_cache_hits_total \
  autocomp_fleet_files \
  autocomp_fleet_tables; do
  grep -q "^# TYPE $fam " "$metrics" || { echo "smoke: /metrics missing family $fam"; exit 1; }
done
families=$(grep -c '^# TYPE' "$metrics")
[ "$families" -ge 25 ] || { echo "smoke: only $families metric families (need >= 25)"; exit 1; }
echo "smoke: /metrics serves $families families"

# /statusz: the daemon reports itself done after both cycles, and the
# default tenant's snapshot agrees with its last traced cycle.
curl -fsS "http://$addr/statusz" >"$workdir/statusz.json"
python3 - "$workdir/statusz.json" <<'EOF' || exit 1
import json, sys
st = json.load(open(sys.argv[1]))
checks = [
    (st.get("done") is True, "not done"),
    (st.get("cycles") == 2, "cycles=%r, want 2" % st.get("cycles")),
    ((st.get("last_cycle") or {}).get("day") == st.get("day"),
     "last_cycle.day=%r != day=%r" % ((st.get("last_cycle") or {}).get("day"), st.get("day"))),
]
for ok, msg in checks:
    if not ok:
        sys.exit("smoke: /statusz " + msg)
EOF
echo "smoke: /statusz ok"

# lakectl status renders the scraped trace: one line per cycle.
days=$(go run ./cmd/lakectl status "$addr" | grep -c "^day ")
[ "$days" -eq 2 ] || { echo "smoke: lakectl status printed $days cycles, want 2"; exit 1; }
echo "smoke: lakectl status ok"

echo "smoke: PASS"
