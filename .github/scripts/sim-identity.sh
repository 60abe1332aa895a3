#!/usr/bin/env bash
# sim-identity.sh BASE_BIN HEAD_BIN [OUTDIR]
#
# Runs the deterministic virtual-time driver of two arganrun binaries over a
# fixed matrix and prints, as a Markdown table, whether each cell's -trace and
# -metrics-out files (and, for the report cell, the -report-json file) are
# byte-identical. The sim is deterministic, so a refactor that claims "no
# behaviour change" should read identical everywhere. Four live cells run the
# goroutine driver on one worker (-soak 1 -n 1), whose schedule exchanges no
# messages and is deterministic, and compare the updates=, rounds= and
# batches= counts of its soak line (not traces or wall time). Exit status is
# 0 even when cells differ: this is a report, not a gate.
set -u -f # -f: the system name Grape* must not glob
base=$1
head=$2
out=${3:-$(mktemp -d)}
mkdir -p "$out"

common=(-dataset HW -scale 0.05 -n 4)
cells=()
for app in sssp bfs wcc pr color core sim; do
  for sys in Argan Grape Grape+ Grape\* GraphLab_sync GraphLab_async PowerSwitch Maiter; do
    cells+=("$app|$sys|-app $app -system $sys")
  done
done
cells+=("sssp|crash=1@300+50|-app sssp -faults crash=1@300+50 -ckpt-every 150")
cells+=("pr|crash=1@300+50|-app pr -faults crash=1@300+50 -ckpt-every 150")
cells+=("pr|seed=7; dup=0.05; reorder=0.05|-app pr -faults seed=7;dup=0.05;reorder=0.05")
cells+=("sssp|report-json|-app sssp -report-json REPORT")
for app in sssp bfs wcc pr; do
  cells+=("$app|live, 1 worker|-app $app -soak 1 -n 1 LIVE")
done

run() { # bin tag args...
  local bin=$1 tag=$2
  shift 2
  local args=() live=
  for a in "$@"; do
    [ "$a" = REPORT ] && a="$out/$tag.report.json"
    [ "$a" = LIVE ] && live=1 && continue
    args+=("$a")
  done
  if [ -n "$live" ]; then
    "$bin" "${common[@]}" "${args[@]}" >"$out/$tag.stdout" 2>&1
    echo $? >"$out/$tag.exit"
    grep '^soak 1/1:' "$out/$tag.stdout" | grep -o 'updates=[0-9]* rounds=[0-9]* batches=[0-9]*' >"$out/$tag.counts"
    return
  fi
  "$bin" "${common[@]}" "${args[@]}" -trace "$out/$tag.trace.json" \
    -metrics-out "$out/$tag.metrics.csv" >"$out/$tag.stdout" 2>&1
  echo $? >"$out/$tag.exit"
}

echo '| app | system / plan | sim identity |'
echo '|---|---|---|'
same=0
diff=0
i=0
for c in "${cells[@]}"; do
  IFS='|' read -r app sys args <<<"$c"
  i=$((i + 1))
  # shellcheck disable=SC2086
  run "$base" "base$i" $args
  # shellcheck disable=SC2086
  run "$head" "head$i" $args
  verdict=identical
  if [ -e "$out/base$i.counts" ] && [ ! -s "$out/base$i.counts" ]; then
    verdict="n/a (base prints no counts)"
  fi
  [ "$verdict" = identical ] && for f in exit trace.json metrics.csv report.json counts; do
    [ -e "$out/base$i.$f" ] || [ -e "$out/head$i.$f" ] || continue
    if ! cmp -s "$out/base$i.$f" "$out/head$i.$f"; then
      verdict="differs ($f)"
      break
    fi
  done
  case $verdict in
  identical) same=$((same + 1)) ;;
  n/a*) ;;
  *) diff=$((diff + 1)) ;;
  esac
  echo "| $app | \`$sys\` | $verdict |"
done
echo
echo "$same identical, $diff differ"
