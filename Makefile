# Developer entry points. The repo is pure Go with no external
# dependencies; everything below is a thin wrapper over the go tool.

GO ?= go

.PHONY: tier1 tier2 perturb build test vet race inline-check bench-check bench-smoke bench-dense scale-smoke analyze-smoke async-smoke pairs clean

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

# inline-check fails unless the compiler still inlines two hot paths of
# the runtime: (*Comm).pollMiss, run on every Iprobe miss, and
# (*Comm).event, whose nil check is the whole cost of a disabled
# instrumentation point. A helper grown past the inlining budget shows
# up only as a few percent of host time, so it is checked here.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/mpi 2>&1) || { echo "$$out"; exit 1; }; \
	for f in pollMiss event; do \
		echo "$$out" | grep -q "can inline (\*Comm)\.$$f$$" || { echo "inline-check: (*Comm).$$f is no longer inlined"; exit 1; }; \
	done

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

# bench-smoke compiles and runs every benchmark for a single iteration:
# a fast CI-grade check that no benchmark has rotted, without measuring
# anything.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime=1x ./...

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

# bench-dense runs the process-graph density sweep: the NCL vs NCLC
# (message-combining neighborhood collectives) crossover on ring-banded
# block graphs (bench/ tracks both sides as virt_ms.ncl / virt_ms.nclc).
bench-dense:
	$(GO) run ./cmd/matchbench -exp ext-density -scale 0.5 -json density_records.json

# analyze-smoke is the profiler CI gate: matchbench -analyze re-runs a
# small ranks x models grid of the SBP weak-scaling experiment with the
# trace analyzer on and writes the analyzed records as an artifact, then
# matchbench -in re-renders them from the file. The wait-attribution
# shape check over such records runs in tier2.
analyze-smoke:
	$(GO) run ./cmd/matchbench -exp fig4c -scale 0.25 -models nsr,ncl,rma -analyze -json analysis_records.json
	$(GO) run ./cmd/matchbench -in analysis_records.json

# async-smoke is the asynchronous-engine CI gate: the maximal-matching
# engine (Safra termination detection) vs its round-fenced baseline,
# every matching verified maximal, records written as an artifact, plus
# the explorer sweep over the engine and the detector at a reduced seed
# budget. The ext-async shape check runs in tier2.
async-smoke:
	$(GO) run ./cmd/matchbench -exp ext-async -scale 0.5 -json async_records.json
	$(GO) test -run 'TestExploreAsyncMaximal|TestExploreQuiesceDetector' -short -v ./internal/sched/

clean:
	$(GO) clean ./...
