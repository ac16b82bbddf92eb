#!/bin/sh
# check_shm_syscalls.sh — strace-level proof that the shm transport's
# steady-state frame path makes no syscalls: run a flowload remote smoke
# against a flowserved -endpoint shm://… with the client under strace, then
# assert the client's I/O syscall count is orders of magnitude below the
# lookup count. Sockets pay ≥2 client-side syscalls per batch; the shm rings
# should show only handshake, doorbell and bookkeeping traffic.
#
# The authoritative, always-on gate is TestShmSteadyStateSyscallFree (an
# in-process counter over the transport's only syscall sites); this script is
# the external cross-check for machines that have strace. Without strace it
# skips cleanly so CI images need not carry it.
set -eu
cd "$(dirname "$0")/.."

if ! command -v strace >/dev/null 2>&1; then
	echo "check_shm_syscalls.sh: strace not installed; skipping (counter test covers this gate)"
	exit 0
fi

ep="shm://${TMPDIR:-/tmp}/flowserved-shmcheck.sock"
trace="${TMPDIR:-/tmp}/flowload-shmcheck.strace"
ops=200000

go build -o flowserved.shmcheck ./cmd/flowserved
go build -o flowload.shmcheck ./cmd/flowload
./flowserved.shmcheck -endpoint "$ep" -shards 4 -entries 65536 &
srv=$!
status=0
# One sweep point, closed loop: ops lookups, client-side syscalls summarised
# by strace -c (-f follows the runtime's threads).
strace -f -c -o "$trace" \
	./flowload.shmcheck -remote "$ep" \
	-conns 2 -mix uniform -flows 10000 -ops "$ops" || status=$?
kill -TERM "$srv"
wait "$srv" || status=$?

io_calls=$(awk '$NF ~ /^(read|write|sendto|recvfrom|sendmsg|recvmsg|pread64|pwrite64)$/ { sum += $4 } END { print sum + 0 }' "$trace")
echo "client I/O syscalls: $io_calls across $ops lookups"
# Generous fixed slack for startup, table install and stats; a socket
# transport would need hundreds of thousands of calls here.
if [ "$io_calls" -gt $((ops / 10)) ]; then
	echo "check_shm_syscalls.sh: FAIL — $io_calls I/O syscalls is not a syscall-free frame path" >&2
	status=1
fi
rm -f flowserved.shmcheck flowload.shmcheck "$trace"
exit "$status"
