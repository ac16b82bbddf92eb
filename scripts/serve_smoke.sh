#!/bin/sh
# serve_smoke.sh <tcp|unix|shm|cluster> [out.json] — one small flowload run
# per serving mode, writing a halo-bench/v1 document (default
# BENCH_serve_<mode>.json) stamped with its mode and transport so benchdiff
# never compares across them. tcp|unix|shm drive one flowserved on that
# transport, closed-loop points plus one open-loop fixed-rate point; cluster
# drives three flowserved nodes on loopback TCP with hash ranges
# live-migrated under load.
#
# Every gate is exact. flowload verifies every lookup against its oracle,
# closes every point's lookup ledger (issued == served), fails on any
# transport error coerced into a miss, and on a cluster requires >= 1
# completed migration. Every flowserved is stopped with SIGTERM and must exit
# 0, which it does only when its drain ledger closed (every accepted frame
# answered). No time, rate or latency is compared against a threshold; the
# in-process table is measured by bench/ instead.
set -eu
cd "$(dirname "$0")/.."
mode="${1:?usage: serve_smoke.sh <tcp|unix|shm|cluster> [out.json]}"
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
	echo "serve_smoke.sh: unknown mode $mode (want tcp, unix, shm or cluster)" >&2
	exit 2
	;;
esac

status=0
go run ./cmd/flowload "$@" -flows 20000 -ops 150000 -workers 4 -json "$out" || status=$?
for pid in $pids; do
	kill -TERM "$pid" 2>/dev/null || status=$?
done
for pid in $pids; do
	wait "$pid" || status=$?
done
rm -f flowserved.smoke
exit "$status"
