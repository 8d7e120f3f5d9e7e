#!/bin/sh
# Resource-governor stress drill:
#
#   1. The fault suite — deterministic fault injection against the BDD
#      kernel (transactional rollback, one-shot triggers, cache wipes),
#      fault recovery across every public Checker entry point, and the
#      budgeted CLI paths.
#   2. A deadline-bounded run of a large (4-user) arbiter through the
#      CLI: a tight wall-clock/node budget must stop the run cleanly
#      with exit code 3 and partial diagnostics — never a hang, panic,
#      or corrupted state — while the unbudgeted paper-sized control run
#      still completes with the documented verdicts.
#   3. A concurrent-cancellation drill: a 4-job batch of that arbiter
#      on 4 workers under an aggressive budget. Every job must trip its
#      own governor (exit-3-style diagnostics per job), the fleet must
#      report all jobs, and the process must exit 3 cleanly — no hang,
#      no partial output, no poisoned worker.
#   4. A serve drill: a 32-request burst (28 healthy counter8 checks
#      interleaved with 4 oversized arbiter jobs under per-request
#      quotas) against `smc serve --jobs 2`. Every request must get a
#      response (in-band exhaustion or quarantine rejection — never a
#      dropped line), the server must drain cleanly on shutdown, and
#      the process must exit 3 (worst executed job), not crash.
#   5. One enabled-pipeline overhead gate: the batch bench family with
#      the flight recorder and heap observatory on must stay within 3%
#      of the disabled path's wall time.
#
# Usage: scripts/stress.sh
set -eu
cd "$(dirname "$0")/.."

echo "== fault suite: BDD governor + fault injection =="
cargo test -q -p smc-bdd
echo "== fault suite: checker recovery across public entry points =="
cargo test -q -p smc-checker --test governance
echo "== fault suite: budgeted CLI =="
cargo test -q --test cli

echo "== deadline-bounded large-arbiter run =="
cargo build -q --release --bin smc --example export_smv
TMP="$(mktemp "${TMPDIR:-/tmp}/smc_stress_arbiter.XXXXXX")"
trap 'rm -f "$TMP"' EXIT
./target/release/examples/export_smv 4 > "$TMP"

# A few seconds of wall clock and a 200k-node cap on a model this size:
# expect exit 3 (budget exhausted, diagnostics on stderr). Exit 1 is
# tolerated for the case of a machine fast enough to finish (the
# liveness spec fails by design).
set +e
./target/release/smc check --timeout 5 --node-limit 200000 "$TMP"
code=$?
set -e
case "$code" in
  3) echo "bounded run stopped cleanly with exit 3 (ok)" ;;
  1) echo "bounded run finished within budget with exit 1 (ok)" ;;
  *) echo "bounded run: unexpected exit code $code" >&2; exit 1 ;;
esac

echo "== unbudgeted control run (paper-sized arbiter) =="
./target/release/examples/export_smv 2 > "$TMP"
set +e
./target/release/smc check "$TMP"
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "control run: expected exit 1 (liveness fails), got $code" >&2
  exit 1
fi

echo "== concurrent-cancellation drill: 4-job batch under aggressive budgets =="
BIG="$(mktemp "${TMPDIR:-/tmp}/smc_stress_big.XXXXXX")"
MANIFEST="$(mktemp "${TMPDIR:-/tmp}/smc_stress_manifest.XXXXXX")"
trap 'rm -f "$TMP" "$BIG" "$MANIFEST"' EXIT
./target/release/examples/export_smv 4 > "$BIG"
for _ in 1 2 3 4; do echo "$BIG" >> "$MANIFEST"; done
# A 50k-node cap is far below what the 4-user arbiter needs, so every
# job must trip its own governor concurrently; the wall-clock deadline
# is per job, giving each worker an independent cancellation source.
set +e
ERRS="$(./target/release/smc batch --jobs 4 --no-cache --timeout 2 --node-limit 50000 \
        "$MANIFEST" 2>&1 >/dev/null)"
code=$?
set -e
if [ "$code" -ne 3 ]; then
  echo "cancellation drill: expected exit 3, got $code" >&2
  exit 1
fi
trips="$(printf '%s\n' "$ERRS" | grep -c 'resource budget exhausted')"
if [ "$trips" -ne 4 ]; then
  echo "cancellation drill: expected 4 per-job trip diagnostics, got $trips" >&2
  printf '%s\n' "$ERRS" >&2
  exit 1
fi
echo "all 4 jobs tripped their own governor and the fleet exited cleanly (ok)"

echo "== serve drill: 32-request burst with poison models, clean drain =="
REQS="$(mktemp "${TMPDIR:-/tmp}/smc_stress_serve.XXXXXX")"
trap 'rm -f "$TMP" "$BIG" "$MANIFEST" "$REQS"' EXIT
: > "$REQS"
i=0
while [ "$i" -lt 28 ]; do
  printf '{"op":"check","id":"c%d","path":"models/counter8.smv"}\n' "$i" >> "$REQS"
  i=$((i + 1))
done
# Four copies of the oversized arbiter under a per-request node quota
# far below what it needs: each trips in-band (exhausted) until the
# quarantine gate starts refusing the poisoned source outright.
for i in 1 2 3 4; do
  printf '{"op":"check","id":"p%d","path":"%s","node_limit":20000,"timeout_ms":2000}\n' \
    "$i" "$BIG" >> "$REQS"
done
printf '{"op":"shutdown"}\n' >> "$REQS"
set +e
OUT="$(./target/release/smc serve --jobs 2 --max-queue 64 < "$REQS")"
code=$?
set -e
if [ "$code" -ne 3 ]; then
  echo "serve drill: expected exit 3 (worst executed job), got $code" >&2
  printf '%s\n' "$OUT" >&2
  exit 1
fi
answers="$(printf '%s\n' "$OUT" | grep -c '"op":"check"')"
if [ "$answers" -ne 32 ]; then
  echo "serve drill: expected 32 responses, got $answers" >&2
  printf '%s\n' "$OUT" >&2
  exit 1
fi
exhausted="$(printf '%s\n' "$OUT" | grep -c '"outcome":"exhausted"')"
if [ "$exhausted" -lt 3 ]; then
  echo "serve drill: expected >=3 in-band exhaustions, got $exhausted" >&2
  printf '%s\n' "$OUT" >&2
  exit 1
fi
printf '%s\n' "$OUT" | grep -q '"op":"drained"' || {
  echo "serve drill: missing drained summary" >&2
  printf '%s\n' "$OUT" >&2
  exit 1
}
echo "all 32 requests answered ($exhausted exhausted in-band), server drained (ok)"

echo "== enabled-pipeline overhead gate: recorder + heap observatory must cost <3% =="
# A/B the batch bench family's serial wall with and without the enabled
# pipeline: --recorder gives every job the serve-default flight-recorder
# ring, which enables telemetry (so the cadence-gated Event::HeapSample
# briefs fire at GC, governor-trip and fixpoint checkpoints), and asks
# every job for the final heap brief the batch report carries. The
# disabled path costs one branch and is covered by the purity
# proptests; this gates the *enabled* path's wall cost. The batch walls
# are ~10ms, so single measurements are noise-dominated: each attempt
# interleaves two best-of-7 runs per lane (base, enabled, base,
# enabled) and compares the per-lane minima ("best" is the min over
# repetitions — the noise-resistant estimator for additive wall noise)
# without loosening the 3% budget; the whole comparison retries a few
# times so one noisy machine moment cannot fail the drill.
batch_best_wall() {
  ./target/release/smc bench --reps 7 --no-gate --families batch $1 \
    | awk '/^batch/ { for (i = 1; i < NF; i++)
             if ($i == "jobs1" && $(i+1) == "best") {
               t = $(i+2); sub(/s,?$/, "", t); print t; exit
             } }'
}
attempts="${BENCH_MAX_RUNS:-3}"
n=1
while :; do
  base1="$(batch_best_wall "")"
  on1="$(batch_best_wall "--recorder")"
  base2="$(batch_best_wall "")"
  on2="$(batch_best_wall "--recorder")"
  if [ -z "$base1" ] || [ -z "$on1" ] || [ -z "$base2" ] || [ -z "$on2" ]; then
    echo "overhead gate: could not parse bench output" >&2
    exit 1
  fi
  base="$(awk -v a="$base1" -v b="$base2" 'BEGIN { print (a < b) ? a : b }')"
  on="$(awk -v a="$on1" -v b="$on2" 'BEGIN { print (a < b) ? a : b }')"
  if awk -v a="$base" -v b="$on" 'BEGIN { exit !(b <= a * 1.03) }'; then
    echo "enabled-pipeline overhead within budget: ${base}s plain vs ${on}s enabled (ok)"
    break
  fi
  if [ "$n" -ge "$attempts" ]; then
    echo "overhead gate: ${on}s enabled exceeds ${base}s plain by >3% after $attempts attempts" >&2
    exit 1
  fi
  echo "overhead gate: attempt $n noisy (${base}s vs ${on}s), retrying"
  n=$((n + 1))
done

echo "stress drill complete"
