#!/bin/sh
# Tier-1 verification: build, vet, tests, and the race detector.
# Run from the repository root: ./scripts/check.sh
# RACE=0 skips the race pass (it roughly doubles the runtime).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

# Advisory: the size ROADMAP.md tracks, which should only go down.
echo "==> non-test Go lines outside perfbench/ (advisory): $(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' | xargs cat | wc -l)"

echo "==> go vet ./..."
go vet ./...

# Advisory lint: staticcheck when the binary is on PATH (not baked into the
# toolchain image). Never fails the check — read the findings, fix what is
# real. STATICCHECK=0 skips it.
if [ "${STATICCHECK:-1}" != "0" ]; then
	if command -v staticcheck >/dev/null 2>&1; then
		echo "==> staticcheck (advisory)"
		staticcheck ./... || echo "staticcheck reported findings (advisory; not fatal)"
	else
		echo "==> staticcheck not installed; skipping (advisory)"
	fi
fi

# Three runs per test, so an order- or timing-dependent failure cannot pass
# by luck.
echo "==> go test -count=3 ./..."
go test -count=3 ./...

# perfbench is its own module, so ./... skips it. Vet it here, so a change
# to an API it calls fails this check early and not only the benchmark run;
# its tests run last.
echo "==> perfbench: go vet"
(cd perfbench && go vet .)

# The churn-loop gate: the churn loop's population draws stay pinned, its
# results stay bit-identical across index choices and solvers, and the
# batched objective kernels it scores each period with stay bit-identical to
# the scalar path. Already part of the full suite above; rerun by name so a
# failure is unmistakably attributed.
echo "==> churn-loop gate"
go test -run 'TestRunChurn' -count=1 ./internal/broadcast
go test -run 'TestBatchedScalarEquivalence' -count=1 ./internal/reward

# The answers gate: every solver's served answer under every norm, bit for
# bit, against internal/serve/testdata/answers.golden. Already part of the
# full suite above; rerun by name so a moved answer is unmistakably
# attributed. Rewrite the golden on purpose with make golden-update.
echo "==> answers gate"
go test -run '^TestServedAnswersGolden$' -count=1 ./internal/serve

# The wire-codec fuzz gate: the hand-written pointset codec and the /v1
# body path, each against the encoding/json decode it replaced, the
# codec's number scan (FuzzNumber) against encoding/json's grammar and
# strconv.ParseFloat's bits, a "points" array scanned in pieces of a few
# bytes against one scan (FuzzSplitScan), and the whole /v1/solve handler
# (FuzzSolveHandler: every non-200 answer carries a v1 error code, every
# 200's total matches the objective of its centers). Their seed corpora
# already run in every go test above; this adds mutation.
echo "==> wire-codec fuzz gate"
go test -run '^$' -fuzz '^FuzzSetCodec$' -fuzztime 20s ./internal/pointset
go test -run '^$' -fuzz '^FuzzNumber$' -fuzztime 20s ./internal/pointset
go test -run '^$' -fuzz '^FuzzSplitScan$' -fuzztime 20s ./internal/pointset
go test -run '^$' -fuzz '^FuzzDecodeBody$' -fuzztime 20s ./internal/serve
go test -run '^$' -fuzz '^FuzzSolveHandler$' -fuzztime 20s ./internal/serve

# The gain-sweep fuzz gate: greedy2-lazy's first round is one symmetric
# sweep that must give every point the bits of its own RoundGain, and the
# distance kernel under it must return exactly the rows Dist puts within r,
# with Dist's bits, on any input. Their seed corpora already run in every
# go test above; this adds mutation.
echo "==> gain-sweep fuzz gate"
go test -run '^$' -fuzz '^FuzzRoundGains$' -fuzztime 20s ./internal/reward
go test -run '^$' -fuzz '^FuzzWithin$' -fuzztime 20s ./internal/norm

# The wire-schema gate: the exported v1 serving API (api/v1) must
# match the committed golden dump; breaking a field name, type, tag, or
# error code fails here until api/v1.golden.txt is regenerated deliberately.
echo "==> apicheck (v1 wire schema)"
./scripts/apicheck.sh

# scripts/pairs.sh runs interleaved benchmark pairs, about a minute each
# on the large workloads, so it is only parsed here.
echo "==> pairs.sh syntax"
sh -n scripts/pairs.sh

if [ "${RACE:-1}" != "0" ]; then
	echo "==> go test -race ./..."
	go test -race ./...
	# A grid's window cache is filled by whichever goroutine first queries
	# a cell, or in bulk by FillWindows, and read by all the others; the
	# partition and nearlinear share the instance's grid. Repeat the
	# neighbor-query contract, concurrency and grid-reuse tests so more
	# interleavings run under the detector.
	echo "==> window-cache race gate"
	go test -race -count=10 -run 'TestAppendNear|TestEachCellNear|TestFillWindows|TestFinderPreservesAllAlgorithms|TestPartitionSameWithAnyFinder|TestPartitionReusesInstanceGrid|TestNearLinearSameWithAnyFinder' \
		./internal/spatial ./internal/core ./internal/shard ./internal/solver
	# A large "points" array is scanned in pieces on several goroutines
	# that share the input and join in order; repeat the split tests so
	# more interleavings run under the detector.
	echo "==> split-scan race gate"
	go test -race -count=10 -run 'Split' ./internal/pointset
fi

# Binary-level cancellation smoke: each cmd tool under a short -timeout must
# exit cleanly with valid partial output. SMOKE=0 skips it.
if [ "${SMOKE:-1}" != "0" ]; then
	echo "==> smoke"
	./scripts/smoke.sh
	echo "==> smoke-cluster"
	./scripts/smoke_cluster.sh
fi

# perfbench's tests run last, so that while one of them fails (its
# TestNothingOutlivesRun, ROADMAP item 3) every gate above still runs; the
# check still fails with it.
echo "==> perfbench: go test"
(cd perfbench && go test .)

echo "OK"
