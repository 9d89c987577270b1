#!/bin/sh
# CI driver: everything must build (including benches and examples) and
# every test suite must pass — under both runtime executors. Run from
# anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

# Every persistent or wire format gets a typed decoder that answers
# hostile bytes with an error. The stdlib's untyped serializer cannot,
# so it stays out of the library and the tools.
echo "== no untyped serializer in lib/ or bin/ =="
if grep -rn --include='*.ml' --include='*.mli' 'Marshal\.' lib bin; then
  echo "ci: write a typed codec instead" >&2
  exit 1
fi

# A run owns its GMW plans, preprocessed sessions and base-OT point, so
# work counts and memory never depend on what ran earlier in the process.
# No weak memo anywhere in the library, and no process-wide table or lock
# (a top-level binding) in the layers below the engine.
echo "== no process-wide cache below the engine =="
found="$(grep -rn --include='*.ml' --include='*.mli' 'Ephemeron' lib
  grep -rnE --include='*.ml' '^let [^=]*= *(Mutex|Hashtbl)\.create' \
    lib/bignum lib/crypto lib/mpc)" || true
if [ -n "$found" ]; then
  echo "$found"
  echo "ci: let the run that needs the state own it" >&2
  exit 1
fi

# Library code that only its own tests reach is deleted, not kept: the
# two steps below reject such a module and such an exported value. What
# is listed here stays, for the reason given; a module name keeps the
# whole module.
ONLY_TESTS_REACH_OK="
Budget                            the service's epsilon odometer (ROADMAP item 4)
Group.is_element                  input validation at the group boundary (item 15)
Service.set_pool_fault_source     the chaos tests' wire-fault injection point
Ot_ext.ots_performed              shows word and bit extension use equal IKNP rows
Nat.to_decimal                    the bignum known answers are written in decimal
Stats.stddev                      the statistic the sampler tests check
Sensitivity.elliott_golub_jackson the EGJ bound of §4.4, beside the EN bound
"
kept() { echo "$ONLY_TESTS_REACH_OK" | awk '{ print $1 }' | grep -qxF "$1"; }
module_of() { basename "$1" .ml | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }'; }
# Prints the files under lib/, bin/, bench/, perfbench/ and examples/
# other than $1 and $1i that match the pattern $2.
named_elsewhere() {
  grep -rlE --include='*.ml' --include='*.mli' "$2" lib bin bench perfbench examples |
    grep -vxF -e "$1" -e "${1}i"
}

# Every library module has a caller outside its own two files and the
# tests: some .ml/.mli names it as `M.` or aliases it as
# `= Dstress_<lib>.M`.
echo "== no library module that only tests reach =="
found=""
for f in $(find lib -name '*.ml' | sort); do
  M="$(module_of "$f")"
  lib="$(basename "$(dirname "$f")")"
  kept "$M" && continue
  if ! named_elsewhere "$f" "\\b$M\\.|= *Dstress_$lib\\.$M\\b" > /dev/null; then
    found="$found $f"
  fi
done
if [ -n "$found" ]; then
  echo "only tests reach:$found"
  echo "ci: delete the module, or give it a caller" >&2
  exit 1
fi

# The same rule for each `val v` of a lib/ .mli, inside `module S : sig`
# too: its own .ml names v somewhere other than where it defines it, or
# another .ml/.mli names it as `M.v`, `M.S.v` or `S.v`.
echo "== no exported library value that only tests reach =="
found=""
for f in $(find lib -name '*.ml' | sort); do
  M="$(module_of "$f")"
  kept "$M" && continue
  for sv in $(awk '
      /^[ \t]*module [A-Z][A-Za-z0-9_]* *: *sig/ {
        match($0, /module [A-Z][A-Za-z0-9_]*/)
        s[++d] = substr($0, RSTART + 7, RLENGTH - 7)
        next }
      /^[ \t]*end([ \t]|$)/ && d > 0 { d--; next }
      /^[ \t]*val [a-z_][A-Za-z0-9_]*/ {
        match($0, /val [a-z_][A-Za-z0-9_]*/)
        print (d ? s[d] : "") ":" substr($0, RSTART + 4, RLENGTH - 4) }
    ' "${f}i"); do
    S="${sv%%:*}"
    v="${sv#*:}"
    name="$M.${S:+$S.}$v"
    kept "$name" && continue
    if [ -n "$S" ]; then pat="\\b($M\\.)?$S\\.$v\\b"; else pat="\\b$M\\.$v\\b"; fi
    named_elsewhere "$f" "$pat" > /dev/null && continue
    grep -wF -- "$v" "$f" | grep -vqE "^ *(let|let rec|and) +$v\\b" && continue
    found="$found $name"
  done
done
if [ -n "$found" ]; then
  echo "only tests reach:$found"
  echo "ci: delete the value, or give it a caller" >&2
  exit 1
fi

# Worker processes have one owner: only the Supervisor forks, signals
# and starts threads, so every lost worker goes through its fail-stop
# path (closed, killed, reaped) and none is left running.
echo "== worker processes belong to the Supervisor =="
found="$(grep -rnE --include='*.ml' 'Unix\.(fork|kill)|Thread\.create' lib bin |
  grep -v '^lib/runtime/supervisor\.ml:')" || true
if [ -n "$found" ]; then
  echo "$found"
  echo "ci: fork, kill and start threads only in lib/runtime/supervisor.ml" >&2
  exit 1
fi

echo "== dune build @check =="
dune build @check

echo "== dune build =="
dune build

echo "== dune runtest (sequential executor) =="
DSTRESS_JOBS=1 dune runtest --force

# DSTRESS_JOBS switches every Engine.default_config to the domain-pool
# executor. Dune does not track the variable, so both passes --force: a
# result cached under the other executor never stands in for a run.
echo "== dune runtest (parallel executor, 4 domains) =="
DSTRESS_JOBS=4 dune runtest --force

CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

# The full quick suite, exported through the typed result schema. The
# export must decode as a dstress-bench/1 document, a self-compare must
# report zero deltas, and the seed-deterministic counters (AND gates,
# OT batches, traffic bytes, ...) must exactly match the committed
# baselines — wall-clock numbers are machine-dependent and not gated
# here (see bin/bench_diff.ml --threshold for same-machine gating).
echo "== bench (quick, all suites, --json) =="
dune exec bench/main.exe -- --quick --json "$CI_TMP/bench.json"
dune exec test/json_check.exe -- --bench "$CI_TMP/bench.json"

echo "== bench_diff self-compare =="
dune exec bin/bench_diff.exe -- "$CI_TMP/bench.json" "$CI_TMP/bench.json"

echo "== bench_diff counter drift vs committed baselines =="
# To refresh a committed baseline after an intentional counter change,
# rewrite it in place from a fresh quick run (one command, no manual
# copying — the flag keeps the baseline's one-suite scope):
#   dune exec bench/main.exe -- --quick --json /tmp/bench.json
#   dune exec bin/bench_diff.exe -- --write-baseline \
#     bench/baselines/BENCH_<name>.json /tmp/bench.json
for baseline in bench/baselines/BENCH_*.json; do
  echo "-- $baseline"
  dune exec bin/bench_diff.exe -- --counters-only "$baseline" "$CI_TMP/bench.json"
done

# Crypto backend smoke: a tiny EN run with real (Crypto-mode) base OTs on
# the RFC 7919 2048-bit group — the transfer's whole exponentiation path
# (the generator's and the certificate keys' comb tables, ephemeral
# adjustment, shared-c1 decryption through the ephemeral's comb, OT key
# exchange) at production parameters. Sized to ~6 session pairs so it
# stays well under a minute.
echo "== crypto backend smoke (--ot crypto --group ffdhe2048) =="
dune exec bin/dstress.exe -- stress --core 2 --periphery 1 -i 1 -k 1 \
  --ot crypto --group ffdhe2048 > /dev/null

# Released outputs on the 256-bit group at the egj-256 benchmark's shape
# are pinned per seed: how exponentiations are computed must never move
# an output, and no transfer may miss its lookup table.
echo "== EGJ outputs on the standard group (seeds 1-3) =="
for pin in 1:5907 2:6384 3:6076; do
  seed="${pin%%:*}"
  want="${pin#*:}"
  out="$(dune exec bin/dstress.exe -- stress --model egj --group standard \
    --core 3 --periphery 5 -i 5 --preprocess --seed "$seed")"
  if ! echo "$out" | grep -qx "output: $want" ||
     ! echo "$out" | grep -q '^transfer failures: 0 '; then
    echo "ci: EGJ seed $seed: expected output $want with 0 transfer failures" >&2
    echo "$out" >&2
    exit 1
  fi
done

# Observability smoke: the same faulty run under every executor backend
# and vertex grouping must export byte-identical trace/metrics files, and
# they must parse as JSON. The export flags turn on full collection. The
# 5 vertices form one GMW batch under sequential and one-vertex batches
# under parallel:5.
echo "== obs smoke (trace/metrics determinism across executors) =="
OBS_TMP="$CI_TMP"
for exec in sequential parallel:4 parallel:5; do
  tag="$(echo "$exec" | tr ':' '.')"
  dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
    --fault-crashes 2 --executor "$exec" \
    --trace "$OBS_TMP/trace.$tag.json" --metrics "$OBS_TMP/metrics.$tag.json" \
    > /dev/null
done
for tag in parallel.4 parallel.5; do
  cmp "$OBS_TMP/trace.sequential.json" "$OBS_TMP/trace.$tag.json"
  cmp "$OBS_TMP/metrics.sequential.json" "$OBS_TMP/metrics.$tag.json"
done
dune exec test/json_check.exe -- \
  "$OBS_TMP/trace.sequential.json" "$OBS_TMP/metrics.sequential.json"

# Offline/online smoke: an EN run with preprocessing must be
# observationally identical to the inline run — the tick-domain
# trace/metrics exports byte-compare — in both OT modes. Crypto mode
# runs every IKNP extension online either way, so it gets the small
# shape (~1.5 s a run).
echo "== preprocess smoke (offline/online observational identity) =="
for run in "simulation:--core 2 --periphery 3 -i 2" \
    "crypto:--core 2 --periphery 1 -i 1 -k 1"; do
  ot="${run%%:*}"
  shape="${run#*:}"
  for tag in inline pre; do
    flag=""
    if [ "$tag" = pre ]; then flag="--preprocess"; fi
    # $shape and $flag are flag lists, left unquoted so they split into words.
    dune exec bin/dstress.exe -- stress $shape --ot "$ot" $flag \
      --trace "$CI_TMP/pre.$ot.$tag.trace.json" \
      --metrics "$CI_TMP/pre.$ot.$tag.metrics.json" > /dev/null
  done
  cmp "$CI_TMP/pre.$ot.inline.trace.json" "$CI_TMP/pre.$ot.pre.trace.json"
  cmp "$CI_TMP/pre.$ot.inline.metrics.json" "$CI_TMP/pre.$ot.pre.metrics.json"
done

# OT-mode differential: Simulation OT is the ideal functionality, so a
# whole run must be Crypto OT minus the cost — the tick-domain trace and
# metrics exports byte-compare across the two modes, for EN (sliced, with
# preprocessing) and for EGJ.
echo "== OT-mode differential (simulation vs crypto exports) =="
for run in "en:--preprocess" "egj:"; do
  model="${run%%:*}"
  extra="${run#*:}"
  for ot in simulation crypto; do
    # $extra is a flag list, left unquoted so it splits into words.
    dune exec bin/dstress.exe -- stress --model "$model" --core 2 --periphery 1 \
      -i 1 -k 1 $extra --ot "$ot" \
      --trace "$CI_TMP/ot.$model.$ot.trace.json" \
      --metrics "$CI_TMP/ot.$model.$ot.metrics.json" > /dev/null
  done
  cmp "$CI_TMP/ot.$model.simulation.trace.json" "$CI_TMP/ot.$model.crypto.trace.json"
  cmp "$CI_TMP/ot.$model.simulation.metrics.json" "$CI_TMP/ot.$model.crypto.metrics.json"
done

# Service smoke: a daemon with a persistent worker pool serves three
# concurrent requests from exec'd clients over its named socket; each
# response's tick-domain trace/metrics must byte-match a solo `stress`
# run of the same seeded config, and SIGTERM must drain the daemon
# cleanly (exit 0) and remove its socket file. The daemon binary is
# invoked directly (not through `dune exec`) so $! is the daemon's own
# pid and the TERM signal reaches it, not a wrapper.
echo "== service smoke (daemon + concurrent requests + drain) =="
dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
  --trace "$CI_TMP/solo.trace.json" --metrics "$CI_TMP/solo.metrics.json" \
  > /dev/null
SVC_SOCK="$CI_TMP/dstress-ci.sock"
_build/default/bin/dstress.exe serve --socket "$SVC_SOCK" --service-workers 2 \
  --log-level debug > "$CI_TMP/serve.log" 2> "$CI_TMP/serve.err" &
SVC_PID=$!
REQ_PIDS=""
for i in 1 2 3; do
  _build/default/bin/dstress.exe request --socket "$SVC_SOCK" \
    --core 2 --periphery 3 -i 2 \
    --trace "$CI_TMP/svc.$i.trace.json" --metrics "$CI_TMP/svc.$i.metrics.json" \
    > /dev/null &
  REQ_PIDS="$REQ_PIDS $!"
done
for pid in $REQ_PIDS; do wait "$pid"; done
for i in 1 2 3; do
  cmp "$CI_TMP/solo.trace.json" "$CI_TMP/svc.$i.trace.json"
  cmp "$CI_TMP/solo.metrics.json" "$CI_TMP/svc.$i.metrics.json"
done
# Telemetry scrape mid-run: the Stats admin request must answer on the
# same socket, its JSON document must validate, and the Prometheus text
# must report exactly the three requests just served. The structured
# log on stderr must carry their trace IDs end to end.
echo "== stats scrape =="
_build/default/bin/dstress.exe stats --socket "$SVC_SOCK" \
  --json "$CI_TMP/stats.json" > "$CI_TMP/stats.prom"
dune exec test/json_check.exe -- "$CI_TMP/stats.json"
grep -q '^dstress_service_requests_enqueued 3$' "$CI_TMP/stats.prom"
grep -q '^dstress_service_requests_completed 3$' "$CI_TMP/stats.prom"
grep -q '^dstress_service_request_s_count 3$' "$CI_TMP/stats.prom"
grep '^dstress_service_request_s{quantile="0.99"} ' "$CI_TMP/stats.prom" | grep -qv ' 0$'
grep -q '^dstress_worker_up{worker="0"' "$CI_TMP/stats.prom"
grep -q 'trace=3 msg="request finished"' "$CI_TMP/serve.err"
# A request naming more domains than the executor's bound (64) must be
# rejected before dispatch (exit 4), and the daemon must keep serving.
echo "== oversized executor rejected =="
status=0
_build/default/bin/dstress.exe request --socket "$SVC_SOCK" --core 2 --periphery 3 \
  -i 2 --executor parallel:65 > /dev/null 2> "$CI_TMP/reject.err" || status=$?
test "$status" -eq 4
grep -q 'bound of 64' "$CI_TMP/reject.err"
# A second daemon must not take a live socket over (it exits 1 and the
# first keeps answering), nor replace a file that is not a socket. The
# timeout only bounds a daemon that wrongly starts; it would exit 124.
echo "== socket path ownership =="
status=0
timeout 20 _build/default/bin/dstress.exe serve --socket "$SVC_SOCK" \
  --service-workers 1 > /dev/null 2>&1 || status=$?
test "$status" -eq 1
_build/default/bin/dstress.exe stats --socket "$SVC_SOCK" > /dev/null
echo "not a socket" > "$CI_TMP/plain"
status=0
timeout 20 _build/default/bin/dstress.exe serve --socket "$CI_TMP/plain" \
  --service-workers 1 > /dev/null 2>&1 || status=$?
test "$status" -eq 1
grep -qx "not a socket" "$CI_TMP/plain"
kill -TERM "$SVC_PID"
wait "$SVC_PID"
test ! -e "$SVC_SOCK"

# Benchmark correctness smoke: a short run of each perfbench workload
# checks every released output against its oracle, the exact work
# counters, and (serve-en) that the daemon drains. Its last line is the
# result document; only correctness is gated here, never timing.
# One traced serve-en run covers the path speed claims cite: Prof spans,
# stats deltas, solo replays and the untraced-vs-traced exact-count check.
# The traced egj-256 run is the only one that replays the Group/ElGamal/
# Nat.Mont calls and Crypto-mode Ot_ext setup and extension.
echo "== perfbench smoke (oracle, exact counts, daemon drain) =="
for run in serve-en:0 egj-256:0 serve-en:1 egj-256:1; do
  workload="${run%:*}"
  trace="${run#*:}"
  echo "-- $workload (trace $trace)"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 --trace "$trace" \
    > "$CI_TMP/perfbench.$workload.$trace.out"
  result="$(tail -n 1 "$CI_TMP/perfbench.$workload.$trace.out")"
  echo "$result" | grep -q '"correct":true'
  echo "$result" | grep -q '"failed":0[,}]'
done

echo "CI OK"
