#!/bin/sh
# CI smoke test for durable checkpoint/resume (DESIGN.md §8): run the
# depth-10 safe-agreement check under --checkpoint, SIGKILL it mid-run —
# once as the single-process checkpointed engine, once as the distributed
# coordinator over a live 2-worker TCP fleet — then `wfa resume` each store
# and diff the mirrored --json result fields against an uninterrupted run.
# Interval 0 journals a generation after every subtree job, so the kill
# always lands on a store with recorded progress; the field diff proves the
# verdict, credited count and pruning counters are byte-identical to a run
# that was never interrupted. Last, a store that cannot take its first
# generation must fail the run (exit 2) on both paths, never report a
# verdict with nothing on disk; and one whose later saves fail must keep
# the answer but say, on stderr and in --json, that the store lags.
set -eu

WFA=${WFA:-_build/default/bin/wfa.exe}
D="/tmp/wfa-ckpt-smoke-$$"
mkdir -p "$D"

W1=""
W2=""
cleanup() {
  [ -n "$W1" ] && kill "$W1" 2>/dev/null || true
  [ -n "$W2" ] && kill "$W2" 2>/dev/null || true
  rm -rf "$D"
}
trap cleanup EXIT

# the mirrored top-level result fields (2-space indent; wall_s and the
# checkpoint/dist sub-objects are run-dependent and excluded by design)
fields() {
  grep -E '^  "(verdict|schedules|sleep_pruned|orbits_collapsed)"' "$1"
}

echo "ckpt_smoke: uninterrupted depth-10 reference"
"$WFA" modelcheck --depth 10 --n-s 2 --json "$D/ref.json" > /dev/null
fields "$D/ref.json" > "$D/ref.fields"
grep -q '"schedules": 1048576' "$D/ref.fields" || {
  echo "ckpt_smoke: reference lost the 4^10 count" >&2
  exit 1
}

# Start a checkpointed run, kill -9 it once the store holds at least two
# generations (i.e. the initial snapshot plus recorded progress), resume,
# and require the resumed result to match the reference field-for-field.
# $1 = store dir, $2 = tag, $3... = extra modelcheck/resume flags
kill_and_resume() {
  STORE=$1
  TAG=$2
  shift 2
  # shellcheck disable=SC2086
  "$WFA" modelcheck --depth 10 --n-s 2 --split-depth 4 \
    --checkpoint "$STORE" --checkpoint-interval-s 0 "$@" \
    --json "$D/$TAG-never.json" > "$D/$TAG-run.out" 2>&1 &
  RUN=$!
  i=0
  while [ "$(ls "$STORE" 2>/dev/null | grep -c '^gen-')" -lt 2 ]; do
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
      echo "ckpt_smoke: $TAG: no progress generation to kill" >&2
      cat "$D/$TAG-run.out" >&2
      exit 1
    fi
    sleep 0.01
  done
  kill -9 "$RUN" 2>/dev/null || true
  wait "$RUN" 2>/dev/null || true
  if [ -f "$D/$TAG-never.json" ]; then
    # the search won the race against the kill: resume still has to
    # reproduce the result from the store, but log the weaker run
    echo "  note: $TAG finished before the kill landed"
  fi
  # shellcheck disable=SC2086
  "$WFA" resume "$STORE" "$@" --json "$D/$TAG-resumed.json" \
    | tee "$D/$TAG-resume.out"
  grep -q 'subtree jobs already done' "$D/$TAG-resume.out" || {
    echo "ckpt_smoke: $TAG: resume did not report journaled progress" >&2
    exit 1
  }
  fields "$D/$TAG-resumed.json" > "$D/$TAG-resumed.fields"
  diff -u "$D/ref.fields" "$D/$TAG-resumed.fields" || {
    echo "ckpt_smoke: $TAG: resumed result differs from uninterrupted" >&2
    exit 1
  }
}

echo "ckpt_smoke: single-process SIGKILL mid-run, resume == uninterrupted"
kill_and_resume "$D/local-store" local

echo "ckpt_smoke: booting a 2-worker fleet for the coordinator variant"
"$WFA" serve --listen tcp:127.0.0.1:0 --workers 1 > "$D/w1.log" &
W1=$!
"$WFA" serve --listen tcp:127.0.0.1:0 --workers 1 > "$D/w2.log" &
W2=$!

bound_addr() {
  i=0
  while ! grep -q 'listening on tcp:' "$1" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || {
      echo "ckpt_smoke: worker never announced its address" >&2
      exit 1
    }
    sleep 0.1
  done
  sed -n 's/.*listening on \(tcp:[0-9.]*:[0-9]*\).*/\1/p' "$1" | head -n 1
}

A1=$(bound_addr "$D/w1.log")
A2=$(bound_addr "$D/w2.log")
echo "ckpt_smoke: workers at $A1 and $A2"

echo "ckpt_smoke: coordinator SIGKILL mid-run, resume on the same fleet"
kill_and_resume "$D/dist-store" dist --workers "$A1,$A2"

# $1 = tag, $2... = extra modelcheck flags; a directory squatting on the
# first generation's temp name makes the first save fail
unwritable_store() {
  STORE="$D/blocked-$1"
  shift
  mkdir -p "$STORE/tmp-gen-000000.ckpt"
  rc=0
  "$WFA" modelcheck --depth 6 --n-s 2 --checkpoint "$STORE" "$@" \
    > "$D/blocked.out" 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ckpt_smoke: unwritable store exited $rc, want 2 ($*)" >&2
    cat "$D/blocked.out" >&2
    exit 1
  fi
}

echo "ckpt_smoke: unwritable store fails the run, local and on the fleet"
unwritable_store local
unwritable_store dist --workers "$A1,$A2"

# $1 = tag, $2... = extra modelcheck flags; the first generation lands but
# every later save fails: the answer stands (exit 0), stderr warns, and
# --json counts the failed saves
failing_saves() {
  TAG=$1
  STORE="$D/lagging-$TAG"
  shift
  mkdir -p "$STORE/tmp-gen-000001.ckpt"
  "$WFA" modelcheck --depth 6 --n-s 2 --checkpoint "$STORE" "$@" \
    --json "$D/lagging-$TAG.json" > "$D/lagging.out" 2> "$D/lagging.err" || {
    echo "ckpt_smoke: $TAG: a failed later save stopped the run" >&2
    cat "$D/lagging.out" "$D/lagging.err" >&2
    exit 1
  }
  grep -q 'checkpoint save(s) failed' "$D/lagging.err" &&
    grep -q '"save_errors"' "$D/lagging-$TAG.json" || {
    echo "ckpt_smoke: $TAG: failed later saves went unreported" >&2
    cat "$D/lagging.err" "$D/lagging-$TAG.json" >&2
    exit 1
  }
}

echo "ckpt_smoke: failed later saves are reported, local and on the fleet"
failing_saves local
failing_saves dist --workers "$A1,$A2"

trap - EXIT
kill "$W1" "$W2" 2>/dev/null || true
rm -rf "$D"
echo "ckpt_smoke: ok"
