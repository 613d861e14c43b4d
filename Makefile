# Developer entry points. The repo is pure Go with no external
# dependencies; everything below is a thin wrapper over the go tool.

GO ?= go

.PHONY: tier1 tier2 perturb build test vet race bench-check bench bench-smoke bench-graph bench-p2p bench-ranks bench-dense bench-telemetry bench-analysis scale-smoke analyze-smoke async-smoke clean

# tier1 is the gate every change must keep green: full build + vet +
# full test suite.
tier1: build vet test

# tier2 is the paper-shape regression gate: it regenerates the key
# evaluation artifacts at reduced scale and asserts the paper's
# qualitative claims (which model wins where) over the machine-readable
# run records. Slower than tier1 (about a minute); records land in
# shape_records.json for inspection or plotting.
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

# bench-check vets and tests the repository's benchmark (bench/, run by
# BENCHMARK.json). It is a module of its own, so tier1's ./... does not
# see it: an internal/ API change can break it while tier1 stays green.
bench-check:
	$(GO) vet -C bench . && $(GO) test -C bench .

# bench runs every benchmark once with allocation stats.
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# bench-smoke compiles and runs every benchmark for a single iteration:
# a fast CI-grade check that no benchmark has rotted, without measuring
# anything.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime=1x ./...

# bench-graph reproduces the ingest-path numbers recorded in
# BENCH_graph.json: generator throughput, CSR build/permute/summary, and
# the matching setup kernel. That kernel is graph.BenchmarkKeyOrder (a
# graph keeps its index, so the matchers' own benchmarks time warm
# graphs); BenchmarkRunCold/Warm show what it costs a first Run.
bench-graph:
	$(GO) test -run xxx -bench . -benchmem ./internal/graph/ ./internal/gen/
	$(GO) test -run xxx -bench 'Serial|Parallel|RunCold|RunWarm' -benchmem ./internal/matching/

# bench-p2p reproduces the point-to-point hot-path numbers recorded in
# BENCH_p2p.json.
bench-p2p:
	$(GO) test -run xxx -bench 'PingPong|MailboxBacklog|IprobeBacklogMiss|AnySourceFanIn64' -benchmem ./internal/mpi/

# bench-ranks reproduces the ranks-scaling curve recorded in
# BENCH_p2p.json: the 4-round ring + allreduce world at 1K..RANKS ranks
# under both scheduler modes, plus the pooled world-setup cost and the
# steady-state per-rank memory footprint.
RANKS ?= 131072
bench-ranks:
	BENCH_RANKS=$(RANKS) $(GO) test -run xxx -bench 'RanksRing|WorldSetup|WorldFootprint' -benchmem -timeout 60m ./internal/mpi/

# scale-smoke is the large-world CI gate: a 16K-rank world (ring
# exchange + collectives) must complete within CI budgets and hold the
# per-rank steady-state memory ceiling (footprint_test.go), and the
# rank-count scaling experiment capped at 4K ranks must pass.
scale-smoke:
	$(GO) test -run 'TestLargeWorldSmoke|TestWorldFootprintCeiling16K' -v -timeout 10m ./internal/mpi/
	$(GO) run ./cmd/matchbench -exp ranks -ranks 4096 -json ranks_records.json

# bench-dense reproduces the process-graph density sweep recorded in
# BENCH_p2p.json: the NCL vs NCLC (message-combining neighborhood
# collectives) crossover on ring-banded block graphs.
bench-dense:
	$(GO) run ./cmd/matchbench -exp ext-density -scale 0.5 -json density_records.json

# bench-telemetry reproduces the round-telemetry observer-cost numbers
# recorded in BENCH_telemetry.json.
bench-telemetry:
	$(GO) test -run xxx -bench Telemetry -benchmem -count 3 ./internal/matching/

# bench-analysis reproduces the trace-analyzer throughput numbers
# recorded in BENCH_analysis.json (1K-16K rank traces).
bench-analysis:
	$(GO) test -run xxx -bench BenchmarkAnalyze -benchmem ./internal/analysis/

# analyze-smoke is the profiler CI gate: matchprof re-runs a small
# ranks x models grid of the SBP weak-scaling experiment with the trace
# analyzer on, writes the analyzed records as an artifact, and the
# wait-attribution shape check must pass over freshly generated records.
analyze-smoke:
	$(GO) run ./cmd/matchprof -exp fig4c -scale 0.25 -models nsr,ncl,rma -json analysis_records.json
	RUN_SHAPE_CHECKS=1 SHAPE_SCALE=0.5 $(GO) test -run 'TestPaperShapes/fig4c-wait-attribution' -v ./internal/shape/

# async-smoke is the asynchronous-engine CI gate: the maximal-matching
# engine (Safra termination detection) vs its round-fenced baseline,
# every matching verified maximal, records written as an artifact, plus
# the explorer sweep over the engine and the detector at a reduced seed
# budget and the ext-async shape check over freshly generated records.
async-smoke:
	$(GO) run ./cmd/matchbench -exp ext-async -scale 0.5 -json async_records.json
	$(GO) test -run 'TestExploreAsyncMaximal|TestExploreQuiesceDetector' -short -v ./internal/sched/
	RUN_SHAPE_CHECKS=1 SHAPE_SCALE=0.5 $(GO) test -run 'TestPaperShapes/ext-async-beats-rounds' -v ./internal/shape/

clean:
	$(GO) clean ./...
