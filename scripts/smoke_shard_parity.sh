#!/usr/bin/env bash
# Sharded-decide parity smoke test: the decide plane's output must not
# depend on how many shards it runs on. Builds autocompd and runs the
# same 300-table, 4-day fleet serially and with -decide-shards 4: first
# full-scan (every table generated per shard), then incremental with 20%
# of tables written daily (the changefeed serves each shard from its own
# index stripe), then incremental with a reconciling full scan every
# second cycle (the one-pass index reconcile on each stripe). Apart from
# the "decide plane:" banner line the two outputs of each pair must be
# byte-identical.
#
# Run from the repository root: ./scripts/smoke_shard_parity.sh
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/autocompd" ./cmd/autocompd

run() {
  out=$1
  shift
  "$workdir/autocompd" -tables 300 -days 4 "$@" >"$workdir/$out.log" 2>&1 \
    || { echo "smoke-shard-parity: run $out failed"; cat "$workdir/$out.log"; exit 1; }
  grep -v '^decide plane:' "$workdir/$out.log" >"$workdir/$out.out"
}

check() {
  mode=$1
  shift
  run "$mode-serial" "$@"
  run "$mode-sharded" "$@" -decide-shards 4
  cmp -s "$workdir/$mode-serial.out" "$workdir/$mode-sharded.out" || {
    echo "smoke-shard-parity: $mode run diverged between serial and 4-shard decide"
    diff "$workdir/$mode-serial.out" "$workdir/$mode-sharded.out" | head -20
    exit 1
  }
  echo "smoke-shard-parity: $mode output identical serial and at 4 decide shards"
}

check full-scan
check incremental -incremental -write-frac 0.2
check reconciling -incremental -write-frac 0.2 -reconcile-every 2

echo "smoke-shard-parity: PASS"
