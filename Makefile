# Developer workflow for the xmoe reproduction.
#
#   make ci      - what a CI job runs: gofmt check, vet, build, the gate
#                  regex check, every race verify gate, the fuzz smoke,
#                  the package tests, quick bench
#   make test    - full test suite (includes the slow sweep tests)
#   make race    - full race-detector pass (go test -race ./...)
#   make race-fast - race pass over just the concurrency-heavy packages
#   make bench   - package microbenchmarks with allocation counts
#   make bench-figs - paper-figure benchmarks (slow)
#   make fuzz-smoke - every Fuzz target for FUZZTIME each
#   make gate-check - every -run term of the verify gates selects a test

GO ?= go
FUZZTIME ?= 10s

# The -run selections of the verify gates and the packages they run in.
# gate-check fails when an alternative matches no test in its gate's
# packages, so a renamed test cannot silently drop out of a gate.
DEVENT_RUN  := Engine|ConcurrentCollectives|CommHandleOverlap|SetLinkDerate
DEVENT_PKGS := ./internal/simrt
ZERO_RUN    := ZeRO|StateBytes|ShardRange|ReduceAsync|AllReduceAsync|ReduceScatterAsync|AllGatherAsync|OnDWReady|Bucketed
ZERO_PKGS   := ./internal/simrt ./internal/moe ./internal/train ./internal/memmodel ./internal/netsim
RBD_RUN     := RBD
RBD_PKGS    := ./internal/train ./internal/bench ./internal/baselines
FT_RUN      := GrowShrink|AsyncCkpt|Spare|Mitigation|FaultTolerant|Rebalance|CheckpointBytes|BuildPFTCaps|BusyTimes
FT_PKGS     := ./internal/train ./internal/moe ./internal/memmodel ./internal/simrt
CHAOS_RUN   := Crash|Fault|Inject|Straggler|Flaky|Desync|ReducerPanic|Checkpoint|Derate
CHAOS_PKGS  := ./internal/simrt ./internal/fault ./internal/netsim ./internal/train

.PHONY: all build fmt-check vet test race race-fast race-full chaos-fast verify-devent verify-zero verify-rbd verify-ft gate-check fuzz-smoke bench bench-figs bench-json bench-save ci

all: build

build:
	$(GO) build ./...

# Fails listing the files gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Everything under the race detector — the verify gate for the async
# collective handles and chunked overlap pipelines. The bench sweeps run
# ~10x slower with -race, so the default 10m per-package timeout is not
# enough.
race:
	$(GO) test -race -timeout 60m ./...

# The concurrency-critical packages only: worker pool + tensor arenas
# (tensor), rank goroutines, rendezvous collectives and async handles
# (simrt), cost memoization (netsim), overlapped-span recording (trace),
# pooled + chunked pipelines (moe, rbd, kernels), and the overlapped
# distributed trainer (train).
race-fast:
	$(GO) test -race ./internal/tensor ./internal/simrt ./internal/netsim \
		./internal/trace ./internal/moe ./internal/kernels ./internal/rbd \
		./internal/collective ./internal/train ./internal/fault \
		./internal/devent ./internal/topology

# Kept as an alias for the historical target name.
race-full: race

# Event-engine verification gate: the analytic/event cross-validation
# suite (flat-topology exactness to 1e-12 s, byte-accounting identities,
# contention divergence on rail graphs, derate plumbing) plus the
# determinism tests (identical seeds + concurrent collectives must give
# bit-identical event logs and clocks), all under the race detector.
verify-devent:
	$(GO) test -race ./internal/devent ./internal/topology
	$(GO) test -race -run '$(DEVENT_RUN)' $(DEVENT_PKGS)

# ZeRO verification gate: the sharded gradient-sync stack under the race
# detector — async reduction collectives (simrt), bucket partitioning and
# bit-identity (zero), the sharded trainer step + checkpoint resharding
# (train), the memmodel state predictions, and the bucketed wire-byte
# invariants (netsim).
verify-zero:
	$(GO) test -race ./internal/zero
	$(GO) test -race -run '$(ZERO_RUN)' $(ZERO_PKGS)

# RBD verification gate: the hierarchical dispatch/combine stack under the
# race detector (rbd), the backward determinism matrix and gradient-parity
# pins (chunked==C=1 and pooled==fresh bitwise, RBD==PFT/padded at
# float tolerance), and the RBD rows of the distributed trainer —
# checkpoint/shrink cycles, ZeRO stages, typed option rejections.
verify-rbd:
	$(GO) test -race ./internal/rbd
	$(GO) test -race -run '$(RBD_RUN)' $(RBD_PKGS)

# Fault-tolerance verification gate: the elastic-resilience stack under
# the race detector — the fault plan grammar and injector windows,
# grow/shrink cycle bit-determinism, async==blocking checkpoint weight
# parity (with the mid-write fallback pin), hot-spare promotion, the
# straggler-aware capacity rebalance with its per-rank busy-time signal,
# and the all-features determinism acceptance run.
verify-ft:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run '$(FT_RUN)' $(FT_PKGS)

# Chaos pass: the seeded fault-injection suite under the race detector —
# rank crashes mid-collective, stragglers, flaky retries, degraded links,
# checkpoint rollback and elastic recovery. Every schedule is
# deterministic (fault.Plan seeds), so failures reproduce exactly.
chaos-fast:
	$(GO) test -race -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

# Fails naming every -run alternative of a gate above that selects no
# test, example or fuzz target in that gate's packages (one `go test
# -list` per gate; the terms are plain identifiers, so grep -E matches
# them as go test's -run would).
gate-check:
	@fail=0; \
	check() { names=$$($(GO) test -list . $$3 | grep -E '^(Test|Example|Fuzz)'); \
		for term in $$(echo "$$2" | tr '|' ' '); do \
			echo "$$names" | grep -qE -- "$$term" || \
				{ echo "gate-check: $$1 -run term '$$term' selects no test in $$3"; fail=1; }; \
		done; }; \
	check verify-devent '$(DEVENT_RUN)' '$(DEVENT_PKGS)'; \
	check verify-zero '$(ZERO_RUN)' '$(ZERO_PKGS)'; \
	check verify-rbd '$(RBD_RUN)' '$(RBD_PKGS)'; \
	check verify-ft '$(FT_RUN)' '$(FT_PKGS)'; \
	check chaos-fast '$(CHAOS_RUN)' '$(CHAOS_PKGS)'; \
	exit $$fail

# Runs every Fuzz target in the module for FUZZTIME (go test fuzzes one
# target per invocation); the committed seed corpora under testdata/fuzz
# also run in every plain go test.
fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { n[++k] = $$1; next } /^ok/ { for (i = 1; i <= k; i++) print $$2, n[i]; k = 0 }' | \
		while read pkg target; do \
			echo "fuzz-smoke: $$target ($$pkg)"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/tensor \
		./internal/kernels ./internal/moe ./internal/train

bench-figs:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x .

bench-json:
	$(GO) run ./cmd/xmoe-bench -quick -json

# Record the per-PR performance trajectory into BENCH_results.json (which
# is committed): the scaling figures in quick mode for host-side ns/op and
# allocs/op stability, plus the overlap ablations at full fidelity (EP=64,
# the acceptance configuration) for the simulated speedups.
bench-save:
	$(GO) run ./cmd/xmoe-bench -quick -json -experiment fig10a,fig10b,fig11,fig12
	$(GO) run ./cmd/xmoe-bench -json -experiment abl-overlap,abl-overlap-bwd,abl-faults,abl-engine-delta,abl-zero
	@echo "BENCH_results.json updated; commit it with this PR"

# Quick CI, the superset of every gate: gofmt + vet + build + the gate
# regex check + race tests on the fast packages + the chaos suite + the
# event-engine, ZeRO, RBD and fault-tolerance verify gates + the fuzz
# smoke + unit tests of the remaining packages + a quick microbenchmark
# smoke run.
ci: fmt-check vet build gate-check race-fast chaos-fast verify-devent verify-zero verify-rbd verify-ft fuzz-smoke
	$(GO) test ./internal/... .
	$(GO) test -run=NONE -bench='BenchmarkPFTLayerForwardBackward|BenchmarkMoEFFNForwardBackward' \
		-benchmem -benchtime=10x ./internal/moe ./internal/train
