#!/bin/sh
# perf-ab.sh BASE — judge the working tree ("head") against revision BASE with
# the repository benchmark, the way cmd/benchmark/README.md "Comparing result
# sets" prescribes: both binaries built once, at least ten pairs per workload,
# the side that goes first alternating, one seed list shared by both sides.
# Prints, per workload x end-to-end metric, how many pairs head won, then
# -compare both ways round. Exits 1 if head is worse than BASE beyond a bound.
#
# Environment: PAIRS (default 10, no fewer), WORKLOADS (default all five).
# Run length per run is the benchmark's own default and is not adjustable here.
set -eu

base=${1:?usage: perf-ab.sh <base-rev>}
pairs=${PAIRS:-10}
workloads=${WORKLOADS:-pingpong_small stream_large nas_ring faulted campaign_service}
metrics="setup_s pass_ms_p50 allocs_per_pass alloc_kb_per_pass"

cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "perf-ab: $base is not a commit" >&2
	exit 2
}
if [ "$pairs" -lt 10 ]; then
	echo "perf-ab: PAIRS=$pairs; a verdict needs at least ten pairs" >&2
	exit 2
fi
# Two sides measured with different benchmark code compare nothing.
if ! git diff --quiet "$base" -- cmd/benchmark BENCHMARK.json; then
	echo "perf-ab: cmd/benchmark or BENCHMARK.json differ from $base; refusing to compare" >&2
	git diff --stat "$base" -- cmd/benchmark BENCHMARK.json >&2
	exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")
trap 'rm -rf "$work/tree" "$work/run.base" "$work/run.head"' EXIT
mkdir "$work/tree" "$work/run.base" "$work/run.head"
git archive "$base" | tar -x -C "$work/tree"
go build -C "$work/tree/cmd/benchmark" -o "$work/bench.base" .
go build -C cmd/benchmark -o "$work/bench.head" .

# run SIDE WORKLOAD SEED: one untraced run, appended to SIDE's result set.
# Each side works in a directory of its own (the benchmark writes .bench_tmp/).
run() {
	(cd "$work/run.$1" && "$work/bench.$1" -workload "$2" -seed "$3" -out "$work/$1.ndjson" >>"$work/$1.log" 2>&1) || {
		echo "perf-ab: $1 failed on $2 seed $3; see $work/$1.log" >&2
		exit 2
	}
}

for w in $workloads; do
	seed=1
	while [ "$seed" -le "$pairs" ]; do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$w" "$seed"
			run head "$w" "$seed"
		else
			run head "$w" "$seed"
			run base "$w" "$seed"
		fi
		echo "perf-ab: $w pair $seed/$pairs" >&2
		seed=$((seed + 1))
	done
done

# values FILE WORKLOAD METRIC: the metric's readings, one per line, in run order.
values() {
	awk -v w="\"workload\":\"$2\"" -v m="\"$3\":{\"value\":" 'index($0, w) {
		i = index($0, m)
		if (i) { s = substr($0, i + length(m)); sub(/[,}].*/, "", s); print s }
	}' "$1"
}

echo
echo "pairs won by head (lower is better on every metric; ties count for neither side)"
printf '%-17s %-18s %9s %9s %5s %6s\n' workload metric "head wins" "base wins" ties pairs
for w in $workloads; do
	for m in $metrics; do
		values "$work/base.ndjson" "$w" "$m" >"$work/a"
		values "$work/head.ndjson" "$w" "$m" >"$work/b"
		paste "$work/a" "$work/b" | awk -v w="$w" -v m="$m" '
			{ if ($2 + 0 < $1 + 0) head++; else if ($1 + 0 < $2 + 0) base++; else ties++ }
			END { printf "%-17s %-18s %9d %9d %5d %6d\n", w, m, head, base, ties, NR }'
	done
done

echo
echo "-compare base head (a = $base, b = working tree)"
status=0
"$work/bench.head" -compare "$work/base.ndjson" "$work/head.ndjson" || status=$?
echo
echo "-compare head base (a = working tree, b = $base)"
"$work/bench.head" -compare "$work/head.ndjson" "$work/base.ndjson" || true
echo
echo "result sets and logs: $work"
exit "$status"
