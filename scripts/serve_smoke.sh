#!/bin/sh
# serve_smoke.sh <local|grow|tcp|unix|shm|cluster> [out.json] — one flowload
# -smoke -check run per serving mode, writing a halo-bench/v1 document
# (default BENCH_serve_<mode>.json) stamped with its mode and transport so
# benchdiff never compares across them. flowload verifies every lookup
# exactly in every mode; -check adds the lookup ledger (issued == served,
# zero transport errors) plus, per mode: local the shard-scaling gate; grow
# >= 3 doublings per shard and migration-p99 <= 2x steady-p99; tcp|unix|shm
# one flowserved on that transport, closed-loop points plus one open-loop
# fixed-rate point; cluster three flowserved nodes on loopback TCP with hash
# ranges live-migrated under load, >= 1 migration completed.
#
# Every flowserved is stopped with SIGTERM and must exit 0, which it does
# only when its drain ledger closed (every accepted frame answered). Timings
# are machine-dependent, so nothing here is diffed against a baseline.
set -eu
cd "$(dirname "$0")/.."
mode="${1:?usage: serve_smoke.sh <local|grow|tcp|unix|shm|cluster> [out.json]}"
out="${2:-BENCH_serve_$mode.json}"

pids=""
# serve <endpoint> [cluster-endpoint-list]: start one flowserved node.
serve() {
	if [ -z "$pids" ]; then
		go build -o flowserved.smoke ./cmd/flowserved
	fi
	./flowserved.smoke -endpoint "$1" ${2:+-cluster "$2"} -shards 4 -entries 65536 &
	pids="$pids $!"
}

case "$mode" in
local) set -- ;;
grow) set -- -grow -shards 4 ;;
tcp | unix | shm)
	ep="$mode://${TMPDIR:-/tmp}/flowserved-smoke-$mode.sock"
	if [ "$mode" = tcp ]; then
		ep="tcp://127.0.0.1:7411"
	fi
	serve "$ep"
	set -- -remote "$ep" -conns 2,4 -rate 0,200000
	;;
cluster)
	eps="tcp://127.0.0.1:7461,tcp://127.0.0.1:7462,tcp://127.0.0.1:7463"
	for port in 7461 7462 7463; do
		serve "tcp://127.0.0.1:$port" "$eps"
	done
	set -- -cluster "$eps" -conns 2 -migrations 2
	;;
*)
	echo "serve_smoke.sh: unknown mode $mode (want local, grow, tcp, unix, shm or cluster)" >&2
	exit 2
	;;
esac

status=0
go run ./cmd/flowload "$@" -smoke -check -json "$out" || status=$?
for pid in $pids; do
	kill -TERM "$pid" 2>/dev/null || status=$?
done
for pid in $pids; do
	wait "$pid" || status=$?
done
rm -f flowserved.smoke
exit "$status"
