#!/bin/sh
# Runs interleaved parent/change pairs of one perfbench workload and
# compares every end-to-end metric BENCHMARK.json declares:
#
#   scripts/pairs.sh PARENT_REV WORKLOAD PAIRS [FIRST_SEED]
#
# Both sides run from copies in sibling directories of equal path length:
# PARENT_REV's tree (git archive) in .bench_build/parent, and the working
# tree's tracked and untracked, not ignored files, uncommitted edits
# included, in .bench_build/change. Each call refreshes both copies and
# keeps each side's build cache. Pair i runs
# `bash perfbench/run.sh --workload WORKLOAD --seed FIRST_SEED+i --seconds 20`
# in each copy with the same seed, the parent first in even pairs and the
# change first in odd ones. Each run's last line (the JSON result) is kept
# in .bench_build/pairs/WORKLOAD-seedS-SIDE.json. Per metric the table
# shows each side's median and quartiles, the pairs the change wins by the
# metric's `better`, whether the change's median stays within the metric's
# `bound` of the parent's, and whether a gain claimed on it would pass:
# wins in at least 9 of 10 pairs, and a gap between the medians larger
# than the parent's interquartile range. It exits non-zero when a run fails
# or reports "correct": false. One pair of a large workload takes about a
# minute on 2 vCPUs; run nothing else meanwhile.
set -eu

cd "$(dirname "$0")/.."
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/pairs.sh PARENT_REV WORKLOAD PAIRS [FIRST_SEED]" >&2
	exit 2
fi
workload=$2 pairs=$3 first=${4:-1}
root=$PWD
parent=$root/.bench_build/parent
change=$root/.bench_build/change
out=$root/.bench_build/pairs
rev=$(git rev-parse --verify "$1^{commit}")
if [ -e "$parent/.git" ]; then # a git worktree left by an older pairs.sh
	git worktree remove --force "$parent"
fi
# Empty both copies but for their .bench_build (the side's build cache),
# then fill them.
for dir in "$parent" "$change"; do
	mkdir -p "$dir"
	find "$dir" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
done
git archive "$rev" | tar -x -C "$parent"
git ls-files -z --cached --others --exclude-standard |
	tar -c --null -T - --ignore-failed-read -f - 2>/dev/null | tar -x -C "$change"
mkdir -p "$out"

# run SIDE DIR SEED runs one side of a pair and keeps its last line.
run() {
	log=$out/$workload-seed$3-$1.log
	if ! (cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds 20) >"$log" 2>&1; then
		echo "pairs: the $1 run at seed $3 failed; see $log" >&2
		exit 1
	fi
	tail -n 1 "$log" >"$out/$workload-seed$3-$1.json"
	if ! grep -q '"correct":true' "$out/$workload-seed$3-$1.json"; then
		echo "pairs: the $1 run at seed $3 is not correct; see $log" >&2
		exit 1
	fi
	echo "pairs: $workload seed $3 $1 done"
}

i=0
while [ "$i" -lt "$pairs" ]; do
	s=$((first + i))
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$parent" "$s"
		run change "$change" "$s"
	else
		run change "$change" "$s"
		run parent "$parent" "$s"
	fi
	i=$((i + 1))
done

# The metric table of BENCHMARK.json's end_to_end list, then each run's
# last line, tagged with its side and pair.
{
	awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
		on && /"name"/ { print "METRIC " $0 }' BENCHMARK.json
	i=0
	while [ "$i" -lt "$pairs" ]; do
		s=$((first + i))
		for side in parent change; do
			printf 'RUN %s %s ' "$side" "$i"
			cat "$out/$workload-seed$s-$side.json"
		done
		i=$((i + 1))
	done
} | awk -v workload="$workload" -v pairs="$pairs" '
# field returns the string value of "key": "..." or the number of "key": N
# in s.
function field(s, key,   i, v) {
	i = index(s, "\"" key "\"")
	if (i == 0) return ""
	v = substr(s, i + length(key) + 2)
	sub(/^[ \t]*:[ \t]*/, "", v)
	if (substr(v, 1, 1) == "\"") {
		v = substr(v, 2)
		return substr(v, 1, index(v, "\"") - 1)
	}
	match(v, /^[-+0-9.eE]+/)
	return substr(v, 1, RLENGTH)
}
# quantile returns the q-quantile of a[1..n], sorted in place, by linear
# interpolation between order statistics.
function quantile(a, n, q,   i, j, t, h) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	h = (n - 1) * q + 1
	i = int(h)
	if (i >= n) return a[n]
	return a[i] + (h - i) * (a[i + 1] - a[i])
}
$1 == "METRIC" {
	m++
	name[m] = field($0, "name"); better[m] = field($0, "better"); bound[m] = field($0, "bound")
	next
}
$1 == "RUN" {
	line = $0
	for (k = 1; k <= m; k++) {
		i = index(line, "\"" name[k] "\":{")
		if (i == 0) continue
		val[$2, $3, k] = field(substr(line, i + length(name[k]) + 3), "value")
	}
}
END {
	printf "%s, %d pairs (parent vs change): median [q1, q3]\n", workload, pairs
	printf "%-18s %-6s %-5s %-36s %-36s %-6s %-7s %s\n", "metric", "better", "bound", "parent", "change", "wins", "bounded", "claim"
	for (k = 1; k <= m; k++) {
		np = w = 0
		for (i = 0; i < pairs; i++) {
			p = val["parent", i, k]; c = val["change", i, k]
			if (p == "" || c == "") continue
			np++; pv[np] = p + 0; cv[np] = c + 0
			if ((better[k] == "lower" && c + 0 < p + 0) || (better[k] == "higher" && c + 0 > p + 0)) w++
		}
		if (np == 0) {
			printf "%-18s %-6s %-5s not reported\n", name[k], better[k], bound[k]
			continue
		}
		pm = quantile(pv, np, 0.5); p1 = quantile(pv, np, 0.25); p3 = quantile(pv, np, 0.75)
		cm = quantile(cv, np, 0.5); c1 = quantile(cv, np, 0.25); c3 = quantile(cv, np, 0.75)
		if (better[k] == "lower") {
			ok = cm <= pm * (1 + bound[k]); gap = pm - cm
		} else {
			ok = cm >= pm * (1 - bound[k]); gap = cm - pm
		}
		claim = (w * 10 >= 9 * np && gap > p3 - p1) ? "pass" : "fail"
		printf "%-18s %-6s %-5s %-36s %-36s %-6s %-7s %s\n", name[k], better[k], bound[k],
			sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3),
			w "/" np, ok ? "yes" : "NO", claim
	}
}'
