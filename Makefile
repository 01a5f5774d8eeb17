# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt-check test race check alloc-gate bench bench-quick bench-claims microbench-fabric microbench-deliver benchmark ab fuzz examples experiments clean

all: build vet test

# The full gate: build, vet, formatting, tests, the race detector over the
# concurrency-heavy packages (communication libraries, fabric ARQ,
# parcelports, serving tier, and Octo-Tiger's phase-shared reply buffers),
# the allocation gate, and the artifacts' in-process structural claims.
# Nothing here writes inside the repo.
check: build vet fmt-check test race alloc-gate bench-claims

# The receiver-datapath allocation gate: delivering a warm eager-sized
# multi-parcel message must not allocate, spawned or inline, and neither must
# a warm 39-frame aggregation bundle (the shape the bundled fast path really
# produces) decoded once and run inline (see DESIGN.md §9 and §14); a steady
# 1 MiB rendezvous stream must allocate no more than 8 KiB of heap per
# transfer (its receive buffers are pooled); and on the send side a warm 64 B
# ApplyID with aggregation off must not allocate (connectionless eager send,
# DESIGN.md §7); and a warm Octo-Tiger ot_boundary pull must not allocate
# (DESIGN.md §16). Run with -count=1 so a cached pass never masks a
# regression.
alloc-gate:
	$(GO) test ./internal/core/ -run 'TestDeliverBundleZeroAllocs|TestDeliverInlineBundleZeroAllocs|TestDeliverHPXBBundleZeroAllocs|TestCollBoxFastPathZeroAlloc|TestRendezvousStreamAllocBytes|TestDirectSendZeroAllocs' -count=1
	$(GO) test ./internal/serialization/ -run 'TestDecodeIntoSteadyStateAllocs|TestDecodeIntoBundleSteadyStateAllocs' -count=1
	$(GO) test ./internal/lci/ -run TestChunkedZeroAllocSteadyState -count=1
	$(GO) test ./internal/serve/ -run 'TestServeCachedGetZeroAllocs|TestTokenBucketZeroAllocs' -count=1
	$(GO) test ./internal/octotiger/ -run TestBoundaryPullZeroAllocs -count=1

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
	$(GO) test -race ./internal/ring/... ./internal/lci/... ./internal/mpisim/... ./internal/fabric/... ./internal/parcelport/... ./internal/amt/... ./internal/core/... ./internal/serve/... ./internal/octotiger/... -timeout 1800s
	$(GO) test -race ./internal/wire/ -run Lifetime -count=3 -timeout 1800s

bench:
	$(GO) test -bench=. -benchmem ./... -timeout 3600s

# The measured artifact tables (bench.Artifacts; `experiments -h` lists the
# targets, DESIGN.md "Artifacts: tables plus in-process claims" the claims).
# bench-<artifact> measures one at quick scale, checks its claims and
# rewrites its table in results/ (run `experiments -scale full -out results
# collectives` for the recorded 256-locality numbers). The names
# `experiments` knows them by carry a -bench suffix except for two.
ARTIFACTS := rendezvous serve fabric deliver latency collectives
experiments-target = $(if $(filter $(1),collectives serve),$(1),$(1)-bench)

.PHONY: $(ARTIFACTS:%=bench-%)
$(ARTIFACTS:%=bench-%): bench-%:
	$(GO) run ./cmd/experiments -scale quick -out results $(call experiments-target,$*)

# The testing.B siblings of the two datapath artifacts print first
# (results/fabric-datapath.txt and results/receiver-datapath.txt have the
# prose before/after): per-packet inject/poll cost, poll-cost-vs-cluster-
# size scaling and the cost of one idle and one 64-put progress pass;
# bundled delivery and batched task spawn.
bench-fabric: microbench-fabric
bench-deliver: microbench-deliver

microbench-fabric:
	$(GO) test -bench 'BenchmarkInjectPoll|BenchmarkPoll' -benchmem ./internal/fabric/ -timeout 1800s
	$(GO) test -run '^$$' -bench 'BenchmarkProgressIdle|BenchmarkProgressDrain64' -benchmem ./internal/parcelport/lcipp/ -timeout 1800s

microbench-deliver:
	$(GO) test -bench BenchmarkDeliverBundle -benchmem ./internal/core/ -timeout 1800s
	$(GO) test -bench BenchmarkSpawnBatch -benchmem ./internal/amt/ -timeout 1800s

# Measure every artifact that makes a structural claim (rendezvous striping,
# serve cache and admission, fabric poll flatness, deliver amortization, the
# zero-allocation rows) and fail on any broken claim. Every claim compares
# rows measured in the same process, so no committed number is involved and
# nothing is written.
bench-claims:
	$(GO) run ./cmd/experiments -scale quick bench-claims

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
	$(GO) test ./internal/fabric/ -fuzz FuzzARQAdmit -fuzztime 15s

examples:
	$(GO) test . -run TestExamplesRun -v

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -out results all

clean:
	$(GO) clean ./...
