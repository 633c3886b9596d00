#!/usr/bin/env bash
# Management-plane smoke test: boot autocompd as a serving daemon on an
# ephemeral port, then drive the HTTP control API end to end — create a
# second tenant next to the built-in default, push a policy diff over
# the wire, submit shipped scenarios (steady-state, and kill-restart,
# which restarts its lake mid-run) through the runs API and poll them to
# completion (asserting each trace matches its committed golden), and
# finish with a graceful SIGTERM drain.
#
# Run from the repository root: ./scripts/smoke_mgmt.sh
set -eu

workdir=$(mktemp -d)
log="$workdir/autocompd.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/autocompd" ./cmd/autocompd
go build -o "$workdir/lakectl" ./cmd/lakectl

# A short default-tenant run: the daemon keeps serving after it ends.
"$workdir/autocompd" -days 2 -listen 127.0.0.1:0 >"$log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^telemetry: listening on \([0-9.:]*\).*/\1/p' "$log")
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "smoke-mgmt: autocompd exited before announcing its address"; cat "$log"; exit 1; }
  sleep 0.2
done
[ -n "$addr" ] || { echo "smoke-mgmt: autocompd never announced its listen address"; cat "$log"; exit 1; }
echo "smoke-mgmt: autocompd management API on $addr"

# The built-in default tenant is served by the API.
curl -fsS "http://$addr/api/tenants" | grep -q '"name": "default"' \
  || { echo "smoke-mgmt: default tenant missing from GET /api/tenants"; exit 1; }
echo "smoke-mgmt: default tenant listed"

# Create a second tenant with its own seed and topology.
code=$(curl -sS -o "$workdir/create.json" -w '%{http_code}' -X POST "http://$addr/api/tenants" \
  -d '{"name":"t2","seed":7,"days":3,"initial_tables":40}')
[ "$code" = "201" ] || { echo "smoke-mgmt: create tenant returned $code"; cat "$workdir/create.json"; exit 1; }
echo "smoke-mgmt: second tenant created"

# Both tenants render in lakectl's remote table.
"$workdir/lakectl" tenants "$addr" | grep -q "t2" \
  || { echo "smoke-mgmt: lakectl tenants did not list t2"; exit 1; }
echo "smoke-mgmt: lakectl tenants ok"

# Push a different shipped policy to t2 and require a non-empty diff.
"$workdir/lakectl" policy push "$addr" t2 examples/policies/metadata-heavy.json >"$workdir/push.out" \
  || { echo "smoke-mgmt: policy push failed"; cat "$workdir/push.out"; exit 1; }
grep -q . "$workdir/push.out" || { echo "smoke-mgmt: policy push printed nothing"; exit 1; }
curl -fsS "http://$addr/api/tenants/t2/policy" | grep -q '"name": "metadata-heavy"' \
  || { echo "smoke-mgmt: pushed policy not reported by GET /policy"; exit 1; }
echo "smoke-mgmt: policy push ok (diff staged for next cycle boundary)"

# An invalid policy is rejected with the compile error, 422.
code=$(curl -sS -o "$workdir/badpush.json" -w '%{http_code}' -X PUT "http://$addr/api/tenants/t2/policy" \
  -d '{"name":"bad","generators":[{"name":"no-such-generator"}]}')
[ "$code" = "422" ] || { echo "smoke-mgmt: invalid policy push returned $code, want 422"; exit 1; }
grep -q "no-such-generator" "$workdir/badpush.json" \
  || { echo "smoke-mgmt: 422 body does not carry the compile error"; cat "$workdir/badpush.json"; exit 1; }
echo "smoke-mgmt: invalid policy rejected with compile errors"

# Submit a shipped scenario through the runs API, poll it to done, and
# require its trace to match the committed golden byte-for-byte.
run_scenario() {
  name=$1
  code=$(curl -sS -o "$workdir/run.json" -w '%{http_code}' -X POST "http://$addr/api/tenants/t2/runs" \
    -d "{\"scenario\":\"$name\"}")
  [ "$code" = "202" ] || { echo "smoke-mgmt: $name run submit returned $code"; cat "$workdir/run.json"; exit 1; }
  run_id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$workdir/run.json" | head -1)
  [ -n "$run_id" ] || { echo "smoke-mgmt: $name run submit returned no id"; cat "$workdir/run.json"; exit 1; }

  status=""
  for _ in $(seq 1 300); do
    status=$(curl -fsS "http://$addr/api/tenants/t2/runs/$run_id" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p')
    [ "$status" = "done" ] && break
    [ "$status" = "failed" ] && { echo "smoke-mgmt: $name run failed"; curl -fsS "http://$addr/api/tenants/t2/runs/$run_id"; exit 1; }
    sleep 0.2
  done
  [ "$status" = "done" ] || { echo "smoke-mgmt: $name run never completed (status=$status)"; exit 1; }
  echo "smoke-mgmt: API-submitted $name run $run_id completed"

  curl -fsS "http://$addr/api/tenants/t2/runs/$run_id/trace" >"$workdir/trace.out"
  cmp -s "$workdir/trace.out" "examples/scenarios/golden/$name.trace" \
    || { echo "smoke-mgmt: $name API run trace differs from committed golden"; exit 1; }
  echo "smoke-mgmt: $name run trace matches committed golden byte-for-byte"
}

run_scenario steady-state
# kill-restart reopens its lake from the run's temp store twice, inside
# the daemon: the restart must stay invisible in the trace.
run_scenario kill-restart

# Graceful shutdown: SIGTERM drains tenants and exits cleanly.
kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$pid" 2>/dev/null; then
  echo "smoke-mgmt: daemon did not exit after SIGTERM"; exit 1
fi
wait "$pid" 2>/dev/null || true
grep -q "signal received" "$log" || { echo "smoke-mgmt: no drain message in log"; cat "$log"; exit 1; }
echo "smoke-mgmt: graceful shutdown ok"

echo "smoke-mgmt: PASS"
