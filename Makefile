# Developer entry points. The repo is pure Go with no external
# dependencies; everything below is a thin wrapper over the go tool.

GO ?= go

.PHONY: tier1 tier2 perturb build test vet race inline-check bench-check scale-smoke pairs clean

# tier1 is the gate every change must keep green: full build + vet +
# full test suite.
tier1: build vet test

# tier2 is the paper-shape regression gate: it regenerates the key
# evaluation artifacts at reduced scale and asserts the paper's
# qualitative claims (which model wins where) over the machine-readable
# run records. Takes ~10-15 s on a 2-CPU VM; records land in
# shape_records.json (untracked) for inspection or plotting.
tier2:
	RUN_SHAPE_CHECKS=1 SHAPE_RECORDS=$(CURDIR)/shape_records.json $(GO) test -run TestPaperShapes -v ./internal/shape/

# perturb runs the schedule-perturbation explorer (DESIGN §4a): N seeds
# per communication model on small RGG + SBP inputs, requiring every
# perturbed schedule to reproduce the exact baseline matching. On
# divergence the failing seed is shrunk to a minimal profile, written to
# perturb_failures.json, and printed as a PERTURB_SEED=... repro line.
PERTURB_N ?= 32
perturb:
	PERTURB_N=$(PERTURB_N) PERTURB_ARTIFACT=$(CURDIR)/perturb_failures.json \
		$(GO) test -run 'TestExplore|TestInjectedOrderingBug|TestPerturbedRunInvariants' -v ./internal/sched/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the suite under the race detector (slower; the simulated-MPI
# runtime is heavily concurrent, so this is the second gate).
race:
	$(GO) test -race ./...

# inline-check fails unless the compiler still inlines the hot paths'
# helpers: in the runtime, (*Comm).pollMiss, run on every Iprobe miss,
# (*Comm).event, whose nil check is the whole cost of a disabled
# instrumentation point, (*Comm).ComputeUnits, the batched unit
# charge, and (*RankStats).noteSend, the ledger entry of every
# point-to-point send; the event-log view's EventLog.Len and
# EventLog.At, run inside the critical-path walk's binary search; in
# the matching engine, the per-arc bit helpers (*engine).isClosed,
# close, isAsked, ask and open, run on every arc the protocol touches,
# and settle, run before every send and after every record; the
# distribution's
# (*Local).NeighborIndex, run on every buffered send; and the
# transport's UnpackTarget, run on every record the matching and
# colouring engines receive, and (*ledger).neighbor, run on every
# buffered send. A helper grown past the inlining budget shows up only
# as a few percent of host time, so it is checked here.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/mpi 2>&1) || { echo "$$out"; exit 1; }; \
	for f in pollMiss event ComputeUnits; do \
		echo "$$out" | grep -q "can inline (\*Comm)\.$$f$$" || { echo "inline-check: (*Comm).$$f is no longer inlined"; exit 1; }; \
	done; \
	for f in Len At; do \
		echo "$$out" | grep -q "can inline EventLog\.$$f$$" || { echo "inline-check: EventLog.$$f is no longer inlined"; exit 1; }; \
	done; \
	echo "$$out" | grep -q "can inline (\*RankStats)\.noteSend$$" || { echo "inline-check: (*RankStats).noteSend is no longer inlined"; exit 1; }; \
	out=$$($(GO) build -gcflags=-m ./internal/matching 2>&1) || { echo "$$out"; exit 1; }; \
	for f in isClosed close isAsked ask open settle; do \
		echo "$$out" | grep -q "can inline (\*engine)\.$$f$$" || { echo "inline-check: (*engine).$$f is no longer inlined"; exit 1; }; \
	done; \
	out=$$($(GO) build -gcflags=-m ./internal/distgraph 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "can inline (\*Local)\.NeighborIndex$$" || { echo "inline-check: (*Local).NeighborIndex is no longer inlined"; exit 1; }; \
	out=$$($(GO) build -gcflags=-m ./internal/transport 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "can inline UnpackTarget$$" || { echo "inline-check: UnpackTarget is no longer inlined"; exit 1; }; \
	echo "$$out" | grep -q "can inline (\*ledger)\.neighbor$$" || { echo "inline-check: (*ledger).neighbor is no longer inlined"; exit 1; }

# bench-check vets and tests the repository's benchmark (bench/, run by
# BENCHMARK.json). It is a module of its own, so tier1's ./... does not
# see it: an internal/ API change can break it while tier1 stays green.
bench-check:
	$(GO) vet -C bench . && $(GO) test -C bench .

# pairs is the evidence a host-time claim needs (ROADMAP ground rules):
# N alternating parent/change passes of benchmark workload W, each
# side's median and quartiles, the pair wins and host.spin_ns for every
# metric. The parent is HEAD when the tree is dirty, else HEAD~1;
# ARGS passes tools/pairs flags through (-parent REV, -trace 1 for the
# per-layer metrics, -seconds S).
N ?= 10
pairs:
	$(GO) run ./tools/pairs -w $(W) -n $(N) $(ARGS)

# scale-smoke is the large-world CI gate: a 16K-rank world (ring
# exchange + collectives) must complete within CI budgets and hold the
# per-rank steady-state memory ceiling (footprint_test.go), and the
# rank-count scaling experiment must pass to 65536 ranks, which runs NCL
# matching at the paper's 16384 processes and at four times that, with
# run records (and so round logs) on; ranks_records.json is the CI
# artifact (~10 s and ~1.2 GB peak RSS on a 2-CPU VM).
scale-smoke:
	$(GO) test -run 'TestLargeWorldSmoke|TestWorldFootprintCeiling16K' -v -timeout 10m ./internal/mpi/
	$(GO) run ./cmd/matchbench -exp ranks -ranks 65536 -json ranks_records.json

clean:
	$(GO) clean ./...
