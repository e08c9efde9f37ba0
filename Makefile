GO ?= go
FUZZTIME ?= 30s

.PHONY: check build vet lint lint-fix test race loc bench bench-build bench-memory bench-plan bench-fig4 bench-join fuzz fuzz-plan fuzzcert chaos chaos-crash serve-smoke loadtest loadtest-smoke

# check is what CI runs: build, vet, lint, the full test suite under
# the race detector (the parallel executor must stay race-clean), and
# the benchmark module built and tested against this checkout.
check: build vet lint race bench-build

# lint runs the repo-local static checks. vetcert is the type-aware
# invariant analyzer (tools/vetcert): governance polling on row loops,
# memory-charge balance, context threading, snapshot discipline,
# guard-sentinel hygiene, and switch exhaustiveness over the closed
# node families and enums. It owns the aggregate exit code — 0 clean,
# 1 findings, 2 operational error — and make propagates it verbatim.
# certlint must then cleanly process the checked-in Q⁺ corpus (the
# translated experiment queries): the queries are hazardous by
# construction, which is certlint's exit status 1, so only an
# operational error (>=2) fails the target — and it fails with
# certlint's own status, not a swallowed zero.
lint:
	$(GO) run ./tools/vetcert
	@$(GO) run ./cmd/certlint -tpch internal/certain/testdata/golden/*.sql > /dev/null; \
		status=$$?; if [ $$status -ne 0 ] && [ $$status -ne 1 ]; then \
		echo "certlint: operational error (exit $$status)" >&2; exit $$status; fi

# lint-fix is deliberately not an auto-fixer: every vetcert finding is
# an invariant violation, and the fix is either real (thread the ctx,
# release the charge, name the missing case) or a documented
# suppression — never a mechanical rewrite. This target prints the
# suppression etiquette and the rule list.
lint-fix:
	@echo "vetcert has no auto-fixer. Fix the invariant, or suppress with"
	@echo ""
	@echo "    // vetcert:ignore <rule>[, <rule>...]: <reason>"
	@echo ""
	@echo "on the offending line, in the comment block directly above it, or"
	@echo "in the enclosing function's doc comment. The reason is part of the"
	@echo "annotation: an unexplained suppression is a review blocker."
	@echo ""
	@echo "Registered rules:"
	@$(GO) run ./tools/vetcert -rules

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints the non-test Go lines of the packages deletions are
# measured on — the facade (the root package), the algebra, the plan
# cache, the executor, the planner with its statistics, the analyzer,
# routing, the rows with their hash index, the values with their key
# encoding, the translations with brute force, the definitional
# oracle, the differential tests, the experiment runners and the TPC-H
# substrate with its detectors — and all Go lines outside bench/, so a
# deletion claim is regenerated rather than pasted.
loc:
	@printf '%-22s %s\n' 'facade (root)' "$$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@for d in internal/algebra internal/plancache internal/eval internal/plan internal/stats internal/analyze internal/shard internal/table internal/value internal/guard internal/certain internal/refeval internal/difftest internal/experiment internal/tpch tools; do \
		printf '%-22s %s\n' $$d "$$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"; done
	@printf '%-22s %s\n' 'all Go outside bench/' "$$(find . -name '*.go' ! -path './bench/*' | xargs cat | wc -l)"

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-build compiles and tests the benchmark module (bench/, a module
# of its own that `go build ./...` at the root does not see) against
# this checkout, so a deletion that breaks the surface it compiles
# against fails here instead of in the benchmark pipeline. Offline;
# -mod=mod as in bench/run.sh.
bench-build:
	cd bench && GOFLAGS=-mod=mod $(GO) vet ./... && GOFLAGS=-mod=mod $(GO) test ./...

# bench-memory gates the executor's peak estimated intermediate memory
# (guard.Governor.MemHighWater, an exact count) on the translated Q1-Q4:
# no higher than recorded in the test, and Q4 at most half of what the
# operator-at-a-time engine deleted after commit bdb0e4d charged.
bench-memory:
	$(GO) test -run '^TestStreamingPeakMemory$$' -count=1 -v .

# bench-plan measures the cost-based planner against the paper-faithful
# naive plans (Options.NaivePlanner) on the translated Q1-Q4, prepared,
# single-core, under both the default and the raw (unsplit, Section 7)
# translations; the benchmark fails unless the planner is >=1.5x faster
# on at least two appendix queries (EXPERIMENTS.md records the measured
# table). Byte-identical results are TestPlannerSpeedup's, in `make test`.
bench-plan:
	$(GO) test -run '^$$' -bench BenchmarkPlannerSpeedup -benchtime 5x .

# bench-fig4 runs the miniature Figure 4 twice, each time on both of
# the facade's routes (paper-faithful: NaivePlanner; default: what
# certsqld serves): first on the wall clock (BenchmarkFigure4Shape: the
# paper's triptych on t⁺/t, and Q4's ratio per route as a reported
# metric) — advisory, because timings depend on the machine and its
# load, so its failure is printed and ignored — then on exact cost
# units (TestFigure4Shape: the same triptych on RelCost, with Q4 held
# below the 8-branch split's value), which is the gate.
bench-fig4:
	-$(GO) test -run '^$$' -bench BenchmarkFigure4Shape -benchtime 3x ./internal/experiment
	$(GO) test -run '^TestFigure4Shape$$' -count=1 -v ./internal/experiment

# bench-join times the hash operators in both build directions
# (BenchmarkBuildSide: a 60 000-row side joined, semijoined and
# antijoined against 2, 500 and 15 000 rows, and as forward controls
# 15 000 x 500 and a 60 000 x 15 000 semijoin that verifies a residual
# condition per candidate), Q4's four-leaf join block on its own
# (BenchmarkJoinBlock: with Q4's filters and with its three edges
# only, over sf 0.01), the null-list read of a selection that
# requires a null (BenchmarkNullScan: null(l_partkey) over sf 0.01
# lineitem, against the same selection over a full scan), a drained
# selection (BenchmarkDrain: l_receiptdate > l_commitdate over sf 0.01
# lineitem), a full checkpoint of the sf 0.01 instance
# (BenchmarkCheckpoint, internal/persist) and the generation of that
# instance, null injection included (BenchmarkGenerate, internal/tpch).
# -benchmem prints B/op and allocs/op beside the time: a join block
# copies each output row once, a drain allocates its table once at its
# exact size, a segment's blocks are encoded in one reused buffer, and
# the generator writes each value once, packed in position order.
# Advisory like bench-fig4's first half: wall-clock, so its failure is
# printed and ignored; the exact gates are TestBuildSideEquivalence
# (a build side read in two parts, SemiHint.Split, included),
# TestJoinBlockSteps, TestJoinBlockCopiesRowsOnce,
# TestDrainCopiesRowsOnce, TestDrainResultDoesNotAliasStorage,
# TestNullScanMatchesFullScan, TestCostUnitsDirectionIndependent,
# TestSegmentBytesPinned, TestGenerateDigestGolden and the layout tests
# of internal/table, in `make test`.
bench-join:
	-$(GO) test -run '^$$' -bench 'BenchmarkBuildSide|BenchmarkJoinBlock|BenchmarkNullScan|BenchmarkDrain' -benchtime 5x -benchmem ./internal/eval
	-$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint' -benchtime 5x -benchmem ./internal/persist
	-$(GO) test -run '^$$' -bench 'BenchmarkGenerate' -benchtime 5x -benchmem ./internal/tpch

# fuzz runs every native fuzz target for FUZZTIME each, under the race
# detector. 30s per target is the CI smoke setting; for a nightly long
# run use e.g.
#
#	make fuzz FUZZTIME=10m
#
# Crashers are written to the package's testdata/fuzz/<Target>/
# directory and replay as part of the plain test suite — commit them.
fuzz:
	$(GO) test -race -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sql
	$(GO) test -race -run='^$$' -fuzz=FuzzLex -fuzztime=$(FUZZTIME) ./internal/sql
	$(GO) test -race -run='^$$' -fuzz=FuzzLike -fuzztime=$(FUZZTIME) ./internal/value
	$(GO) test -race -run='^$$' -fuzz=FuzzUnifyTuples -fuzztime=$(FUZZTIME) ./internal/value
	$(GO) test -race -run='^$$' -fuzz=FuzzCertainPipeline -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -race -run='^$$' -fuzz=FuzzCompileEval -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -race -run='^$$' -fuzz=FuzzAnalyzerSoundness -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -race -run='^$$' -fuzz=FuzzPlannerAblation -fuzztime=$(FUZZTIME) ./internal/difftest

# fuzz-plan hammers only the planner's byte-identity contract: the
# coverage-guided planner-ablation fuzzer (optimized vs naive plans,
# every route, sequential and parallel) under the race detector.
fuzz-plan:
	$(GO) test -race -run='^$$' -fuzz=FuzzPlannerAblation -fuzztime=$(FUZZTIME) ./internal/difftest

# fuzzcert runs the seeded differential oracle over a deterministic
# range of cases (no coverage guidance, instantly reproducible: every
# failure prints its seed and a shrunken Go repro). It is also the
# reference-oracle gate: the summary's "reference ran" line counts the
# cases on which the executor was compared with the definitional
# evaluator, per route and semantics.
fuzzcert:
	$(GO) run ./cmd/fuzzcert -cases 2000 -seed 1

# chaos sweeps the fault-injection / cancellation / degradation
# invariants (DESIGN.md §10) over 500 seeded cases under the race
# detector: every injected fault must surface as a typed error (never a
# panic, never a wrong answer), a random-point cancellation must land
# as guard.ErrCanceled in every ablation, degraded results must equal
# the certain answers exactly, the executor must agree with the
# definitional evaluator on every clean case, injected panics must
# never poison the plan or view caches, and no goroutine may leak.
chaos:
	$(GO) test -race -count=1 -run '^TestChaosSweep$$' ./internal/difftest

# chaos-crash is the durability counterpart (DESIGN.md §15): 200 seeded
# kill-point runs crash the persistent store at every durability seam
# (WAL append, fsync, segment write, manifest rename, checkpoint) under
# the race detector, asserting recovery lands on a valid monotone
# version with the catalog and Q1-Q4 byte-identical to an in-RAM
# oracle and fsck clean afterwards; then the out-of-process kill -9
# harness replays real SIGKILLs against certsqld -data-dir with the
# fsck pass as the final gate.
chaos-crash:
	$(GO) test -race -count=1 -run '^TestCrashRecovery$$' ./internal/difftest
	GO=$(GO) ./scripts/crash_smoke.sh

# serve-smoke is the end-to-end check of the serving layer: build
# certsqld and the shell, start the server on a random port, run the
# paper's Q1-Q4 twice each through the remote client, assert from
# /metrics that the plan cache served repeats and that no request ended
# in a 5xx, then SIGTERM and require a clean drain (exit 0).
serve-smoke:
	GO=$(GO) ./scripts/serve_smoke.sh

# loadtest soaks certsqld with the closed-loop generator in
# cmd/loadtest (the paper's Q1-Q4 plus ad-hoc variations) and reports
# QPS, latency percentiles and 5xx counts; EXPERIMENTS.md records the
# measured table. DURATION and CONCURRENCY pass through to the script.
loadtest:
	GO=$(GO) ./scripts/loadtest.sh

# loadtest-smoke is the CI setting: a short soak that asserts the
# server survives concurrent load with zero 5xx responses.
loadtest-smoke:
	GO=$(GO) DURATION=3s ./scripts/loadtest.sh
