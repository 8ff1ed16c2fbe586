GO ?= go

.PHONY: build test vet race check smoke smoke-cluster apicheck apicheck-update golden-update clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Full tier-1 verification: gofmt + build + vet + test + race + smoke.
check:
	./scripts/check.sh

# End-to-end cancellation smoke: build each cmd binary, run it under a short
# -timeout, and assert a clean exit with valid partial output.
smoke:
	./scripts/smoke.sh

# Cluster smoke: boot a 3-node local cdserved cluster, fan a sharded solve
# across it, kill one peer mid-run, and assert the coordinator still lands
# the bit-identical answer via local fallback.
smoke-cluster:
	./scripts/smoke_cluster.sh

# Wire-schema gate: diff the exported v1 serving API against the committed
# golden (api/v1.golden.txt); apicheck-update regenerates it deliberately.
apicheck:
	./scripts/apicheck.sh

apicheck-update:
	./scripts/apicheck.sh -update

# Answers golden: rewrite internal/serve/testdata/answers.golden, every
# served answer's bits, from the current handler after an intended change.
golden-update:
	$(GO) test ./internal/serve -run '^TestServedAnswersGolden$$' -count=1 -update

clean:
	$(GO) clean ./...
