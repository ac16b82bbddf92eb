#!/bin/sh
# bench_serve_remote.sh <transport> [out.json] — run a flowserved instance on
# the given transport (tcp, unix or shm), drive it with the flowload remote
# smoke (closed-loop points plus one open-loop fixed-rate point), and archive
# the halo-bench/v1 document. The document stamps the transport into its
# workload identity, so benchdiff refuses to compare artifacts across
# transports — per-transport baselines stay apples-to-apples by construction.
#
#   scripts/bench_serve_remote.sh tcp  BENCH_serve_remote_tcp.json
#   scripts/bench_serve_remote.sh unix BENCH_serve_remote_unix.json
#   scripts/bench_serve_remote.sh shm  BENCH_serve_remote_shm.json
#
# Exits nonzero if the zero-loss drain ledger, the client-error gate, or the
# graceful drain fails.
set -eu
cd "$(dirname "$0")/.."
transport="${1:-tcp}"
out="${2:-BENCH_serve_remote_$transport.json}"
case "$transport" in
tcp) ep="tcp://127.0.0.1:7411" ;;
unix) ep="unix://${TMPDIR:-/tmp}/flowserved-bench.sock" ;;
shm) ep="shm://${TMPDIR:-/tmp}/flowserved-bench-shm.sock" ;;
*)
	echo "bench_serve_remote.sh: unknown transport $transport (want tcp, unix or shm)" >&2
	exit 2
	;;
esac

go build -o flowserved.bench ./cmd/flowserved
./flowserved.bench -endpoint "$ep" -shards 4 -entries 65536 &
srv=$!
status=0
go run ./cmd/flowload -remote "$ep" -smoke -check \
	-conns 2,4 -rate 0,200000 -json "$out" || status=$?
# SIGTERM → graceful drain; flowserved exits 0 only if every accepted frame
# was answered (zero-loss drain ledger).
kill -TERM "$srv"
wait "$srv" || status=$?
rm -f flowserved.bench
exit "$status"
