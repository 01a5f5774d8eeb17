# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt-check test race check alloc-gate bench bench-quick bench-all bench-gate microbench-fabric microbench-deliver benchmark ab fuzz examples experiments clean

all: build vet test

# The full gate: build, vet, formatting, tests, the race detector over the
# concurrency-heavy packages (communication libraries, fabric ARQ,
# parcelports, serving tier), the collectives perf snapshot, the serving-tier
# SLO snapshot, and the message-rate/rendezvous/latency/serve regression
# gate.
check: build vet fmt-check test race alloc-gate bench-collectives bench-serve bench-gate

# The receiver-datapath allocation gate: delivering a warm eager-sized
# multi-parcel message must not allocate, spawned or inline, and neither must
# a warm 39-frame aggregation bundle (the shape the bundled fast path really
# produces) decoded once and run inline (see DESIGN.md §9 and §14); and a
# steady 1 MiB rendezvous stream must allocate no more than 8 KiB of heap per
# transfer (its receive buffers are pooled). Run with -count=1 so a cached
# pass never masks a regression.
alloc-gate:
	$(GO) test ./internal/core/ -run 'TestDeliverBundleZeroAllocs|TestDeliverInlineBundleZeroAllocs|TestDeliverHPXBBundleZeroAllocs|TestCollBoxFastPathZeroAlloc|TestRendezvousStreamAllocBytes' -count=1
	$(GO) test ./internal/serialization/ -run 'TestDecodeIntoSteadyStateAllocs|TestDecodeIntoBundleSteadyStateAllocs' -count=1
	$(GO) test ./internal/lci/ -run TestChunkedZeroAllocSteadyState -count=1
	$(GO) test ./internal/serve/ -run 'TestServeCachedGetZeroAllocs|TestTokenBucketZeroAllocs' -count=1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./... -timeout 900s

race:
	$(GO) test -race ./internal/ring/... ./internal/lci/... ./internal/mpisim/... ./internal/fabric/... ./internal/parcelport/... ./internal/amt/... ./internal/core/... ./internal/serve/... -timeout 1800s
	$(GO) test -race ./internal/wire/ -run Lifetime -count=3 -timeout 1800s

bench:
	$(GO) test -bench=. -benchmem ./... -timeout 3600s

# The eight BENCH_*.json artifacts (bench.Artifacts; `experiments -h` lists
# the targets, DESIGN.md "Artifacts: one schema, one gate" the columns, gate
# rules and claims). bench-<artifact> regenerates one into results/ — table,
# JSON, claims checked — pinned to quick scale, the scale bench-gate runs at,
# so the committed rows stay comparable (run `experiments -scale full -out
# results collectives` for the recorded 256-locality numbers). The names
# `experiments` knows them by carry a -bench suffix except for three. The
# gated ones come first and in bench-gate's order, so bench-all measures them
# in the process state bench-gate re-measures them in (behind the collectives
# sweep's warm heap, msgrate/lci_i/64B reads ~1.2 µs against ~2.3 µs fresh).
ARTIFACTS := msgrate rendezvous latency serve inline fabric deliver collectives
experiments-target = $(if $(filter $(1),collectives serve inline),$(1),$(1)-bench)

.PHONY: $(ARTIFACTS:%=bench-%)
$(ARTIFACTS:%=bench-%): bench-%:
	$(GO) run ./cmd/experiments -scale quick -out results $(call experiments-target,$*)

# All eight in one invocation, so every artifact carries the same commit.
bench-all:
	$(GO) run ./cmd/experiments -scale quick -out results $(foreach a,$(ARTIFACTS),$(call experiments-target,$(a)))

# The testing.B siblings of the two datapath artifacts print first
# (results/fabric-datapath.txt and results/receiver-datapath.txt have the
# prose before/after): per-packet inject/poll cost and poll-cost-vs-cluster-
# size scaling; bundled delivery and batched task spawn.
bench-fabric: microbench-fabric
bench-deliver: microbench-deliver

microbench-fabric:
	$(GO) test -bench 'BenchmarkInjectPoll|BenchmarkPoll' -benchmem ./internal/fabric/ -timeout 1800s

microbench-deliver:
	$(GO) test -bench BenchmarkDeliverBundle -benchmem ./internal/core/ -timeout 1800s
	$(GO) test -bench BenchmarkSpawnBatch -benchmem ./internal/amt/ -timeout 1800s

# Re-measure the gated artifacts (message rate, rendezvous, latency, serve,
# inline) and compare against the committed baselines; fails on step
# regressions and on broken structural claims.
bench-gate:
	$(GO) run ./cmd/experiments -scale quick bench-gate

# The repo's one repeatable before/after benchmark (BENCHMARK.json; see
# benchmark/README.md).
benchmark:
	sh benchmark/run.sh

# The paired before/after series behind a performance claim: PARENT (a git
# revision) against the working tree, N interleaved pairs per workload of
# BENCHMARK.json, which side first alternating. Prints, per metric, both
# medians, the parent's quartile distance, wins/N and better / worse /
# unresolved (cmd/ab; ~5 min per workload at the defaults). AB_FLAGS passes
# more, e.g. AB_FLAGS='-workloads xfer_1m_striped -trace 1'.
PARENT ?= HEAD
N ?= 10
ab:
	$(GO) run ./cmd/ab -parent $(PARENT) -n $(N) $(AB_FLAGS)

# Quick A/B of the 64 B message-rate benchmark with the sender-side
# aggregation layer off and on.
bench-quick:
	$(GO) run ./cmd/msgrate -config lci -size 64 -total 20000
	$(GO) run ./cmd/msgrate -config lci -size 64 -total 20000 -agg

# Every fuzz target in the tree (grep -rn '^func Fuzz' --include=*_test.go .).
fuzz:
	$(GO) test ./internal/serialization/ -fuzz '^FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/serialization/ -fuzz '^FuzzDecodeBundle$$' -fuzztime 15s
	$(GO) test ./internal/serialization/ -fuzz FuzzParseTransmissionSizes -fuzztime 15s
	$(GO) test ./internal/parcelport/ -fuzz FuzzDecodeHeader -fuzztime 15s
	$(GO) test ./internal/lci/ -fuzz FuzzChunkedReassembly -fuzztime 15s
	$(GO) test ./internal/serve/ -fuzz FuzzParseReply -fuzztime 15s

examples:
	$(GO) test . -run TestExamplesRun -v

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -out results all

clean:
	$(GO) clean ./...
