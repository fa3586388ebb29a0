#!/usr/bin/env bash
# The offline CI gate. Everything must pass with no registry access and
# with warnings promoted to errors.
#
#   scripts/ci.sh
#
# Steps: rustfmt check, release build, full test suite, a smoke run of
# the t5r loss-resilience sweep, a `--trace` smoke (manifest emission +
# validation), a `--profile` smoke (span profile emission + report
# rendering), a `--capture` smoke (pcapng + index emission, forensic
# `inspect` timeline with verdict provenance, truncated captures
# refused), an `ingest` smoke (capture re-ingest through the standalone
# detector, checking live vs re-ingested verdict-counter parity), and a
# one-iteration smoke run of every bench (which also exercises the
# results/bench/*.json emission path).
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="-D warnings"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "==> reproduce t5r smoke (loss-resilience sweep)"
t5r_out="$(mktemp -d)"
./target/release/reproduce t5r --out "$t5r_out" >/dev/null
test -s "$t5r_out/t5r.csv"
rm -rf "$t5r_out"

echo "==> reproduce --trace smoke (run manifest emission + validation)"
trace_out="$(mktemp -d)"
./target/release/reproduce --trace t2 --out "$trace_out" >/dev/null
test -s "$trace_out/t2.csv"
test -s "$trace_out/trace/t2.json"
test -s "$trace_out/trace/t2.csv"
test -s "$trace_out/trace/t2.hist.csv"
./target/release/reproduce validate-trace "$trace_out/trace/t2.json"
# The directory form must find and validate the same manifest.
./target/release/reproduce validate-trace "$trace_out/trace"
rm -rf "$trace_out"

echo "==> reproduce --profile smoke (span profile emission + report rendering)"
profile_out="$(mktemp -d)"
./target/release/reproduce --profile t3 --out "$profile_out" >/dev/null
test -s "$profile_out/t3.csv"
test -s "$profile_out/profile/t3.json"
test -s "$profile_out/profile/t3.csv"
grep -q '"schema": "arpshield-profile/1"' "$profile_out/profile/t3.json"
./target/release/reproduce profile-report "$profile_out/profile/t3.json" \
    >"$profile_out/report.txt"
grep -q "arpshield-profile/1" "$profile_out/report.txt"
# At least one span row with real samples: the simulator's dispatch
# span fires for every delivered frame in every t3 cell.
grep -q "sim.deliver" "$profile_out/report.txt"
# A non-profile file must be rejected with a nonzero exit.
if ./target/release/reproduce profile-report "$profile_out/t3.csv" >/dev/null 2>&1; then
    echo "profile-report accepted a non-profile file" >&2
    exit 1
fi
rm -rf "$profile_out"

echo "==> reproduce --capture smoke (pcapng + index + inspect timeline)"
capture_out="$(mktemp -d)"
ARPSHIELD_RECORD_FRAMES=256 ./target/release/reproduce --capture t2 t3 \
    --out "$capture_out" >/dev/null
for id in t2 t3; do
    test -s "$capture_out/capture/$id.pcapng"
    test -s "$capture_out/capture/$id.index.json"
done
./target/release/reproduce inspect "$capture_out/capture/t2.pcapng" >/dev/null
# t3 runs defended cells: the timeline must surface verdicts with their
# pinned provenance frames.
./target/release/reproduce inspect "$capture_out/capture/t3.pcapng" \
    --verdict binding_changed >"$capture_out/t3.timeline"
grep -q "scheme.verdict" "$capture_out/t3.timeline"
# Inspect stays strict: a capture cut mid-block must fail, naming the cut.
t2_bytes="$(wc -c <"$capture_out/capture/t2.pcapng")"
head -c "$((t2_bytes - 7))" "$capture_out/capture/t2.pcapng" >"$capture_out/cut.pcapng"
if ./target/release/reproduce inspect "$capture_out/cut.pcapng" >/dev/null 2>"$capture_out/cut.err"; then
    echo "inspect accepted a truncated capture" >&2
    exit 1
fi
grep -q "truncated" "$capture_out/cut.err"
rm -rf "$capture_out"

echo "==> reproduce t6s --defend smoke (scale sweep, thread/profile byte identity)"
t6s_out="$(mktemp -d)"
# Small host counts so the smoke stays fast; the published sweep runs
# the full 1k-100k grid. `--defend` additionally runs the VLAN fabric
# with in-fabric DAI (id t6sd). All CSVs — undefended and defended —
# must be byte-identical whether the sweep points fan out over one
# worker or four, and whether or not the wall-clock profiler is armed
# (its artifacts are quarantined under profile/ and stderr).
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=1 \
    ./target/release/reproduce t6s --defend --out "$t6s_out/one" >/dev/null 2>&1
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=4 \
    ./target/release/reproduce t6s --defend --out "$t6s_out/four" >/dev/null 2>&1
# The same sweep with the profiler armed, at both thread counts. The
# heartbeat interval is forced low so even this small smoke emits
# progress lines; the second run checks ARPSHIELD_QUIET silences them.
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=1 ARPSHIELD_HEARTBEAT_SECS=0.001 \
    ./target/release/reproduce t6s --defend --profile --out "$t6s_out/one-prof" \
    >/dev/null 2>"$t6s_out/one-prof.stderr"
ARPSHIELD_T6S_HOSTS=300,900 ARPSHIELD_THREADS=4 ARPSHIELD_QUIET=1 \
    ./target/release/reproduce t6s --defend --profile --out "$t6s_out/four-prof" \
    >/dev/null 2>"$t6s_out/four-prof.stderr"
test -s "$t6s_out/one/t6s_0.csv"
test -s "$t6s_out/one/t6s_1.csv"
# Defended series: open/DAI throughput plus denial and work counters.
for i in 0 1 2 3; do
    test -s "$t6s_out/one/t6sd_$i.csv"
done
# DAI must actually deny the smoke's spoofed frames at every size.
awk -F',' 'NR > 1 && $2 + 0 <= 0 { exit 1 }' "$t6s_out/one/t6sd_2.csv"
# Byte identity across worker count and profiler arming; the profile/
# sidecars are wall-clock data and excluded from the comparison.
diff -r "$t6s_out/one" "$t6s_out/four"
diff -r -x profile "$t6s_out/one" "$t6s_out/one-prof"
diff -r -x profile "$t6s_out/one" "$t6s_out/four-prof"
# The forced-fast interval must produce heartbeat progress lines plus a
# done summary per sweep point, and quiet mode must silence both.
grep -q "heartbeat" "$t6s_out/one-prof.stderr"
grep -q "arpshield t6s hosts=900: done" "$t6s_out/one-prof.stderr"
test ! -s "$t6s_out/four-prof.stderr"
# Coverage gate: span self times must account for >=90% of each run's
# measured wall time (job-level root spans make sum(self) telescope to
# the work actually executed; with >1 worker it can exceed wall time).
python3 - "$t6s_out/one-prof/profile/t6s.json" \
    "$t6s_out/one-prof/profile/t6sd.json" \
    "$t6s_out/four-prof/profile/t6s.json" \
    "$t6s_out/four-prof/profile/t6sd.json" <<'PY'
import json
import sys

failed = False
for path in sys.argv[1:]:
    doc = json.load(open(path))
    if doc["schema"] != "arpshield-profile/1":
        print(f"profile coverage: FAIL {path}: unexpected schema {doc['schema']!r}")
        failed = True
        continue
    coverage = 100.0 * doc["self_total_ns"] / max(doc["wall_ns"], 1)
    verdict = "ok" if coverage >= 90.0 else "FAIL"
    failed |= coverage < 90.0
    print(f"profile coverage: {verdict} {path}: {coverage:.1f}% of wall accounted")
sys.exit(1 if failed else 0)
PY
rm -rf "$t6s_out"

echo "==> reproduce ingest smoke (capture re-ingest + verdict parity)"
ingest_out="$(mktemp -d)"
# Live t3 with a ring large enough that no frame is evicted: re-ingest
# parity needs the monitor's complete vantage on disk.
ARPSHIELD_RECORD_FRAMES=200000 ./target/release/reproduce t3 --trace --capture \
    --out "$ingest_out" >/dev/null
./target/release/reproduce ingest "$ingest_out/capture/t3.pcapng" \
    --scheme passive --vantage passive-monitor --out "$ingest_out" >/dev/null
test -s "$ingest_out/trace/ingest.json"
test -s "$ingest_out/trace/ingest.csv"
./target/release/reproduce validate-trace "$ingest_out/trace/ingest.json"
# The standalone detector must reproduce the live passive runs' verdict
# counters exactly from the recorded vantage.
live_verdicts="$(awk -F',' '/scheme=passive/ && /scheme\.verdict\./ {sum+=$NF} END {print sum+0}' \
    "$ingest_out/trace/t3.csv")"
ingest_verdicts="$(awk -F',' '/detector=passive/ && /scheme\.verdict\./ {sum+=$NF} END {print sum+0}' \
    "$ingest_out/trace/ingest.csv")"
test "$live_verdicts" -gt 0
test "$live_verdicts" = "$ingest_verdicts"
rm -rf "$ingest_out"

echo "==> TESTKIT_BENCH_SMOKE=1 cargo bench --workspace --offline"
TESTKIT_BENCH_SMOKE=1 cargo bench --workspace --offline

echo "==> alloc-floor gate (frame_delivery allocs/frame vs committed baseline)"
# Allocation counts are deterministic (seeded sim, warmed frame pool), so
# unlike the timing comparison above this gate is FATAL: the bench smoke
# just rewrote results/bench/frame_delivery_allocs.json from a live run,
# and any workload allocating more per delivered frame than the committed
# baseline — or the hub broadcast path or the host-stack ARP RX path
# exceeding the 0.02 allocs/frame ceiling — fails CI.
python3 - results/bench/frame_delivery_allocs.json \
    results/bench/baseline/frame_delivery_allocs.json <<'PY'
import json
import sys

live_path, base_path = sys.argv[1], sys.argv[2]
live = {e["id"]: e for e in json.load(open(live_path))["results"]}
base = {e["id"]: e for e in json.load(open(base_path))["results"]}

HUB_CEILING = 0.02  # absolute allocs/frame bound on the zero-copy paths

failed = False
for wid, entry in sorted(base.items()):
    if wid not in live:
        print(f"alloc gate: FAIL {wid}: missing from live report")
        failed = True
        continue
    got, want = live[wid]["allocs_per_frame"], entry["allocs_per_frame"]
    verdict = "ok" if got <= want else "FAIL (regressed)"
    failed |= got > want
    print(f"alloc gate: {verdict} {wid}: {got:.4f} allocs/frame (baseline {want:.4f})")

for wid in ("hub16/broadcast", "hub16/host_arp_rx"):
    hub = live.get(wid)
    if hub is None or hub["allocs_per_frame"] > HUB_CEILING:
        print(f"alloc gate: FAIL {wid} exceeds {HUB_CEILING} allocs/frame ceiling")
        failed = True

sys.exit(1 if failed else 0)
PY

echo "==> scripts/bench_compare.sh (advisory; compare.json is asserted)"
scripts/bench_compare.sh
# The timing verdicts stay advisory, but the machine-readable report
# must exist and carry its schema tag.
test -s results/bench/compare.json
grep -q '"arpshield-bench-compare/1"' results/bench/compare.json

echo "==> ci.sh: all gates passed"
