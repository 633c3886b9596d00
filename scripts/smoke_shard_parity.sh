#!/usr/bin/env bash
# Sharded-decide parity smoke test: the decide plane's output must not
# depend on how many shards it runs on. Builds autocompd and runs the
# same 300-table, 4-day fleet serially and at 4 decide shards
# (execution.decide_shards), each from a spec file derived from
# examples/policies/default.json: first full-scan (every table generated
# per shard), then incremental (an every-commit trigger section) with
# 20% of tables written daily (the changefeed serves each shard from its
# own index stripe), then incremental with a reconciling full scan every
# second cycle (the one-pass index reconcile on each stripe). Apart from
# the "policy:" and "decide plane:" banner lines the two outputs of each
# pair must be byte-identical.
#
# Run from the repository root: ./scripts/smoke_shard_parity.sh
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/autocompd" ./cmd/autocompd

# <mode>-serial.json and <mode>-sharded.json per mode: the shipped
# default plus the mode's trigger section, the sharded twin with
# decide_shards 4 on its execution section.
python3 - examples/policies/default.json "$workdir" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    base = json.load(f)
triggers = {
    "full-scan": None,
    "incremental": {"every_commits": 1},
    "reconciling": {"every_commits": 1, "reconcile_every": 2},
}
for mode, trigger in triggers.items():
    for variant, shards in (("serial", 0), ("sharded", 4)):
        spec = json.loads(json.dumps(base))
        if trigger:
            spec["trigger"] = trigger
        if shards:
            spec["execution"]["decide_shards"] = shards
        with open(f"{sys.argv[2]}/{mode}-{variant}.json", "w") as f:
            json.dump(spec, f, indent=2)
EOF

run() {
  out=$1
  shift
  "$workdir/autocompd" -tables 300 -days 4 -policy "$workdir/$out.json" "$@" >"$workdir/$out.log" 2>&1 \
    || { echo "smoke-shard-parity: run $out failed"; cat "$workdir/$out.log"; exit 1; }
  grep -v '^policy:\|^decide plane:' "$workdir/$out.log" >"$workdir/$out.out"
}

check() {
  mode=$1
  shift
  run "$mode-serial" "$@"
  run "$mode-sharded" "$@"
  grep -q '^decide plane: sharded over 4 shards' "$workdir/$mode-sharded.log" \
    || { echo "smoke-shard-parity: $mode sharded run did not shard its decide phase"; cat "$workdir/$mode-sharded.log"; exit 1; }
  cmp -s "$workdir/$mode-serial.out" "$workdir/$mode-sharded.out" || {
    echo "smoke-shard-parity: $mode run diverged between serial and 4-shard decide"
    diff "$workdir/$mode-serial.out" "$workdir/$mode-sharded.out" | head -20
    exit 1
  }
  echo "smoke-shard-parity: $mode output identical serial and at 4 decide shards"
}

check full-scan
check incremental -write-frac 0.2
check reconciling -write-frac 0.2

echo "smoke-shard-parity: PASS"
