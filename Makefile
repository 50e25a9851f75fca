GO ?= go

# Flags for the bench-json smoke run: scaled far down so CI finishes in
# seconds; override BENCH_JSON_FLAGS for a full-scale artifact run.
BENCH_JSON_FLAGS ?= -exp table1,ranked -inprocess -timeout 5s -table1-rows 100

.PHONY: all build vet lint lint-json test test-invariants race check bench bench-json fuzz-smoke fuzz-smoke-ranked fuzz-smoke-incremental serve-smoke perfbench-test

# Wall-clock budget of the bounded differential-fuzz smoke run.
FUZZTIME ?= 30s

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet, a gofmt check (any file `gofmt -l .` lists fails it),
# and hyfdvet, the project's own static-analysis suite (determinism,
# ctxflow, hooksafe, goroutine, bitsetalias, plus the interprocedural tier:
# lockcheck, leakcheck, statusmap); any unsuppressed finding fails the
# build, and -strict-allows additionally fails on //hyfdvet:allow comments
# that no longer suppress anything.
lint: vet
	test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }
	$(GO) run ./cmd/hyfdvet -strict-allows ./...

# lint-json emits the same findings as one machine-readable document (CI
# uploads it as an artifact).
lint-json:
	$(GO) run ./cmd/hyfdvet -strict-allows -json ./... > hyfdvet.json; \
	status=$$?; cat hyfdvet.json; exit $$status

test:
	$(GO) test ./...

# test-invariants re-runs the suite with the runtime assertion layer armed
# (internal/invariant): fdtree, pli, and validator self-check their
# structural contracts after every mutation.
test-invariants:
	$(GO) test -tags hyfdinvariants ./...

race:
	$(GO) test -race ./...

# check is the repository's gate: everything must compile, pass vet and
# hyfdvet, and pass the full test suite both under the race detector and
# with runtime invariants armed.
check: build lint race test-invariants

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-json runs the benchmark suite and archives each experiment as a
# machine-readable BENCH_<exp>.json artifact in the repo root.
bench-json:
	$(GO) run ./cmd/bench $(BENCH_JSON_FLAGS)

# fuzz-smoke runs the differential fuzzer (public Discover vs the
# brute-force reference) for a bounded time on top of the committed corpus.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDiscoverDifferential -fuzztime=$(FUZZTIME) -run '^$$' .

# fuzz-smoke-ranked runs the ranked top-k differential fuzzer: the engine's
# early-terminated ranking must equal the brute-force cover rescored
# offline, at several k, both null semantics, and two thread counts.
fuzz-smoke-ranked:
	$(GO) test -fuzz=FuzzTopKDifferential -fuzztime=$(FUZZTIME) -run '^$$' .

# fuzz-smoke-incremental runs the incremental maintenance differential
# fuzzer: a fuzzed update batch applied through ModeIncremental must yield
# a cover byte-identical to a cold re-run over the delta'd content, under
# both null semantics and two thread counts.
fuzz-smoke-incremental:
	$(GO) test -fuzz=FuzzIncrementalDifferential -fuzztime=$(FUZZTIME) -run '^$$' .

# serve-smoke is the end-to-end daemon exercise: build hyfdd, start it,
# register a CSV, run one job per mode (fd/afd/ucc/ranked), POST a delta
# and verify the next job pins the new snapshot version with a result
# matching a cold run over the delta'd content, compare warm FD results
# byte-for-byte against cold cmd/hyfd runs, scrape /metrics, and assert a
# clean SIGTERM shutdown.
serve-smoke:
	$(GO) test ./cmd/hyfdd -run 'TestServeSmoke|TestUsageErrors' -count=1 -v

# perfbench-test vets and self-tests the benchmark module. perfbench is its
# own Go module (it replaces hyfd with the parent directory), so the root
# `go build/test ./...` never compiles it; this target catches internal API
# changes that would break the benchmark. It takes about 35 s and is not
# part of `make check`.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
