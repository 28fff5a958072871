#!/bin/sh
# check.sh — the repo's one-stop verification gate:
#   gofmt gate, vet, build, full tests under the race detector (which
#   also covers the parallel experiment runner's and chaos harness's
#   guard tests), a fuzz smoke over every fuzz target, a fast-path
#   equivalence smoke (tpbench output must be byte-identical with and
#   without -nofastpath), kernel/space/transport/wrapper bench
#   regression smokes that fail if the calendar's schedule/churn
#   paths, the space's take hot paths, the steady-state TCP receive
#   path, or the gateway's binary decode->space->respond path
#   allocate, a sync-client-op alloc gate (the pooled completion-cell
#   path must stay <=1 alloc/op end to end), a tiny -netbench run of
#   the network serving plane including the multi-op batch rows
#   (-batchops 8), a real-process serving smoke (a spaceserver child
#   on a loopback port driven by spacecli over XML and binary,
#   including a take that parks until another client writes, and a
#   connection-leak gate: the server's open fds may grow by at most 4
#   over 40 short spacecli runs), a
#   -scaling smoke (the GOMAXPROCS sweep must emit
#   its P=1 reference row), a classic-workload smoke (every pattern of
#   tpbench -workload must emit its sim estimate pair and its
#   kind-routed vs all-shard baseline pair over the pipe plane; the
#   space gate above also pins the kind-routed wildcard take at 0
#   allocs/op), and a
#   cluster-chaos smoke: the replicated 3-node cluster tests under
#   -race plus a full tpbench -cluster -chaos grid asserting the
#   invariants (no acked write lost, at-most-once take), a
#   timing-wheel 0-alloc gate (insert/cancel/expire), a lease-churn
#   smoke (-leasebench, wheel row must not allocate), a durable-notify
#   resume smoke (-notifybench, exactly-once across a mid-run
#   reconnect), and a byte-identity diff of every paper CLI output
#   (-table 4, -sweep, -fig 7, -chaos, -plan) against the committed
#   goldens in internal/core/testdata/golden_cli/.
# Usage: scripts/check.sh   (or: make check)
#   FUZZTIME=2s scripts/check.sh   # shorten/lengthen the fuzz smoke
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l cmd internal bench_test.go)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke (FUZZTIME=${FUZZTIME:=10s} per target)"
# Go runs one -fuzz target per invocation.
go test -run '^$' -fuzz '^FuzzUnpackTX$' -fuzztime "$FUZZTIME" ./internal/frame/
go test -run '^$' -fuzz '^FuzzUnpackRX$' -fuzztime "$FUZZTIME" ./internal/frame/
go test -run '^$' -fuzz '^FuzzDecodeTupleBinary$' -fuzztime "$FUZZTIME" ./internal/xmlcodec/
go test -run '^$' -fuzz '^FuzzUnmarshalRequest$' -fuzztime "$FUZZTIME" ./internal/xmlcodec/
go test -run '^$' -fuzz '^FuzzBatchFrame$' -fuzztime "$FUZZTIME" ./internal/xmlcodec/
go test -run '^$' -fuzz '^FuzzRSPDecode$' -fuzztime "$FUZZTIME" ./internal/cosim/
go test -run '^$' -fuzz '^FuzzRSPStubHandle$' -fuzztime "$FUZZTIME" ./internal/cosim/

echo "==> fast-path equivalence smoke (tpbench with vs without -nofastpath)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/tpbench" ./cmd/tpbench
for mode in "-table 4" "-sweep" "-fig 7"; do
    # shellcheck disable=SC2086
    "$tmp/tpbench" $mode > "$tmp/fast.txt"
    # shellcheck disable=SC2086
    "$tmp/tpbench" $mode -nofastpath > "$tmp/slow.txt"
    if ! cmp -s "$tmp/fast.txt" "$tmp/slow.txt"; then
        echo "fast path output diverges for: tpbench $mode" >&2
        diff "$tmp/slow.txt" "$tmp/fast.txt" >&2 || true
        exit 1
    fi
done

echo "==> kernel bench regression smoke (schedule/churn must not allocate)"
go test -run '^$' -bench '^BenchmarkKernel(Schedule|Churn)$' -benchmem \
    -benchtime=10000x ./internal/sim/ | tee "$tmp/kernelbench.txt"
if awk '/^BenchmarkKernel(Schedule|Churn)-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/kernelbench.txt"; then
    :
else
    echo "kernel calendar regression: schedule/churn allocates" >&2
    exit 1
fi

echo "==> wheel bench regression smoke (insert/cancel/expire must not allocate)"
go test -run '^$' -bench '^BenchmarkWheel(Insert|Cancel|Expire)$' -benchmem \
    -benchtime=10000x ./internal/sim/ | tee "$tmp/wheelbench.txt"
if awk '/^BenchmarkWheel(Insert|Cancel|Expire)-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/wheelbench.txt"; then
    :
else
    echo "timing-wheel regression: insert/cancel/expire allocates" >&2
    exit 1
fi

echo "==> space bench regression smoke (take paths must not allocate)"
go test -run '^$' -bench '^BenchmarkSpaceTake(Hit|Miss|KindHit)100k$' -benchmem \
    -benchtime=2000x ./internal/space/ | tee "$tmp/spacebench.txt"
if awk '/^BenchmarkSpaceTake(Hit|Miss|KindHit)100k-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/spacebench.txt"; then
    :
else
    echo "space serving-plane regression: take hot path allocates" >&2
    exit 1
fi

echo "==> transport bench regression smoke (steady-state TCP receive must not allocate)"
go test -run '^$' -bench '^BenchmarkTCPReceiveSteady$' -benchmem \
    -benchtime=20000x ./internal/transport/ | tee "$tmp/tcpbench.txt"
if awk '/^BenchmarkTCPReceiveSteady-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/tcpbench.txt"; then
    :
else
    echo "transport regression: steady-state TCP receive allocates" >&2
    exit 1
fi

echo "==> wrapper bench regression smoke (binary decode->space->respond must not allocate)"
go test -run '^$' -bench '^BenchmarkBinServeTakeHit$' -benchmem \
    -benchtime=20000x ./internal/wrapper/ | tee "$tmp/wrapbench.txt"
if awk '/^BenchmarkBinServeTakeHit-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/wrapbench.txt"; then
    :
else
    echo "wrapper regression: binary serve path allocates" >&2
    exit 1
fi

echo "==> sync client op gate (pooled completion cells, <=1 alloc/op end to end)"
go test -run '^$' -bench '^BenchmarkSyncClientOpCells$' -benchmem \
    -benchtime=20000x ./internal/wrapper/ | tee "$tmp/syncbench.txt"
if awk '/^BenchmarkSyncClientOpCells-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 1) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/syncbench.txt"; then
    :
else
    echo "completion-plane regression: sync client op exceeds 1 alloc/op" >&2
    exit 1
fi

echo "==> network serving-plane smoke (tpbench -netbench, tiny run, batchops 8)"
"$tmp/tpbench" -netbench -clients 4 -netops 80 -batchops 8 > "$tmp/netbench.txt"
grep -q "tcp/baseline/xml" "$tmp/netbench.txt"
grep -q "tcp/batched/binary" "$tmp/netbench.txt"
grep -q "pipe/batched/binary/b8" "$tmp/netbench.txt"

echo "==> real-process serving smoke (spaceserver + spacecli, XML and binary, parked take)"
go build -o "$tmp/spaceserver" ./cmd/spaceserver
go build -o "$tmp/spacecli" ./cmd/spacecli
"$tmp/spaceserver" -addr 127.0.0.1:0 2> "$tmp/server.log" &
server=$!
trap 'kill "$server" 2>/dev/null || true; rm -rf "$tmp"' EXIT
addr=
for _ in $(seq 100); do
    addr=$(sed -n 's/.*listening on \(.*\)$/\1/p' "$tmp/server.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "spaceserver never logged its listen address" >&2
    cat "$tmp/server.log" >&2
    exit 1
fi
for codec in "" -binary; do
    # shellcheck disable=SC2086
    {
        "$tmp/spacecli" -addr "$addr" $codec write smoke op=fft n:int=7 | grep -qx ok
        "$tmp/spacecli" -addr "$addr" $codec read smoke 'op=?' n:int=7 | grep -q fft
        [ "$("$tmp/spacecli" -addr "$addr" $codec count smoke 'op=?' 'n:int=?')" = 1 ]
        "$tmp/spacecli" -addr "$addr" $codec take smoke 'op=?' n:int=7 | grep -q fft
        [ "$("$tmp/spacecli" -addr "$addr" $codec count smoke 'op=?' 'n:int=?')" = 0 ]
    }
done
# A take with no match parks in the space until a second client's
# write arrives.
"$tmp/spacecli" -addr "$addr" -binary -timeout 20s take parked 'n:int=?' > "$tmp/parked.txt" &
taker=$!
sleep 0.5
if ! kill -0 "$taker" 2>/dev/null; then
    echo "spacecli take returned before any matching write" >&2
    cat "$tmp/parked.txt" >&2
    exit 1
fi
"$tmp/spacecli" -addr "$addr" write parked n:int=42 | grep -qx ok
wait "$taker"
grep -q 42 "$tmp/parked.txt"
# Each spacecli run connects, does one op and leaves: the server must
# release every departed connection's socket (and its goroutines).
if [ -d "/proc/$server/fd" ]; then
    fds_before=$(ls "/proc/$server/fd" | wc -l)
    for _ in $(seq 20); do
        for codec in "" -binary; do
            # shellcheck disable=SC2086
            "$tmp/spacecli" -addr "$addr" $codec count smoke 'op=?' 'n:int=?' > /dev/null
        done
    done
    # The server closes a socket just after its peer's EOF; give the
    # last few a moment.
    for _ in $(seq 50); do
        fds_after=$(ls "/proc/$server/fd" | wc -l)
        [ $((fds_after - fds_before)) -le 4 ] && break
        sleep 0.1
    done
    if [ $((fds_after - fds_before)) -gt 4 ]; then
        echo "spaceserver leaks connections: $fds_before fds before 40 spacecli runs, $fds_after after" >&2
        exit 1
    fi
else
    echo "no /proc/$server/fd: connection-leak gate skipped"
fi
kill "$server"
wait "$server" 2>/dev/null || true

echo "==> multi-core scaling smoke (tpbench -netbench -scaling, tiny run)"
"$tmp/tpbench" -netbench -scaling -clients 4 -netops 80 > "$tmp/scaling.txt"
grep -q "Multi-core scaling" "$tmp/scaling.txt"
# The P=1 reference row must always be present, whatever NumCPU is.
awk '$1 == "1" { found = 1 } END { exit !found }' "$tmp/scaling.txt"

echo "==> classic workload smoke (every pattern, sim estimate + pipe plane)"
# Each suite run emits the deterministic sim estimate pair plus the
# kind-routed vs all-shard baseline pair on the requested plane.
"$tmp/tpbench" -workload all -plane pipe -clients 3 -wtasks 24 > "$tmp/workloads.txt"
for p in masterworker pipeline stream farm; do
    grep -q "^$p/sim " "$tmp/workloads.txt"
    grep -q "^$p/sim/baseline " "$tmp/workloads.txt"
    grep -q "^$p/pipe " "$tmp/workloads.txt"
    grep -q "^$p/pipe/baseline " "$tmp/workloads.txt"
done

echo "==> cluster-chaos smoke (3 nodes, forced primary crash, invariants, -race)"
go test -race -run '^TestClusterChaos' ./internal/core/
"$tmp/tpbench" -cluster -chaos > "$tmp/cluster.txt"
grep -q "invariants: no acked write lost" "$tmp/cluster.txt"
if grep -q "VIOLATION" "$tmp/cluster.txt"; then
    echo "cluster chaos invariant violations:" >&2
    cat "$tmp/cluster.txt" >&2
    exit 1
fi

echo "==> lease-engine churn smoke (tpbench -leasebench, tiny run, books must balance)"
# The run panics if the expiry books don't balance; the wheel row must
# stay allocation-free. The 10x speedup target is only meaningful at
# the full 10^7 scale (scripts/bench.sh) — not asserted here.
"$tmp/tpbench" -leasebench -leases 20000 > "$tmp/leasebench.txt"
grep -q "wheel speedup over per-timer baseline" "$tmp/leasebench.txt"
if awk '$1 == "wheel" && $5 + 0 > 0 { exit 1 }' "$tmp/leasebench.txt"; then
    :
else
    echo "lease engine regression: wheel renew path allocates" >&2
    cat "$tmp/leasebench.txt" >&2
    exit 1
fi

echo "==> durable-notify resume smoke (tpbench -notifybench, tiny fleet, exactly-once)"
# tpbench exits 1 itself if any event is lost or gapped across the
# mid-run reconnect.
"$tmp/tpbench" -notifybench -sessions 400 > "$tmp/notifybench.txt"
grep -q "OK: exactly-once delivery across reconnect" "$tmp/notifybench.txt"

echo "==> golden paper outputs (byte-identical to the committed goldens)"
golden=internal/core/testdata/golden_cli
for spec in "table4.txt:-table 4" "sweep.csv:-sweep" "fig7.txt:-fig 7" \
            "chaos.txt:-chaos" "plan.txt:-plan"; do
    file=${spec%%:*}
    flags=${spec#*:}
    # shellcheck disable=SC2086
    "$tmp/tpbench" $flags > "$tmp/golden_out.txt"
    if ! cmp -s "$golden/$file" "$tmp/golden_out.txt"; then
        echo "paper CLI output diverged from golden: tpbench $flags vs $golden/$file" >&2
        diff "$golden/$file" "$tmp/golden_out.txt" >&2 || true
        exit 1
    fi
done

echo "OK"
