// Package repro reproduces, in pure Go, the system of Ghosh,
// Halappanavar, Kalyanaraman, Khan and Gebremedhin, "Exploring MPI
// Communication Models for Graph Applications Using Graph Matching as a
// Case Study" (IEEE IPDPS 2019): distributed-memory half-approximate
// weighted graph matching implemented under three MPI communication
// models — nonblocking Send-Recv, MPI-3 one-sided RMA, and MPI-3
// neighborhood collectives — plus the MatchBox-P baseline, all running
// on an in-process MPI-3-like runtime with a calibrated virtual-time
// cost model.
//
// Layout:
//
//	internal/mpi       MPI-3-like runtime (P2P, collectives, graph
//	                   topologies, neighborhood collectives, RMA)
//	internal/graph     CSR graphs, builders, serialization
//	internal/gen       deterministic generators for every input family
//	internal/order     BFS, pseudo-peripheral roots, RCM reordering
//	internal/distgraph 1-D distribution, ghosts, process-graph stats
//	internal/matching  the paper's contribution: serial + 4 parallel
//	                   matchers over pluggable transports
//	internal/bfs       Graph500-style distributed BFS (comm contrast)
//	internal/metrics   energy/EDP model, performance profiles
//	internal/harness   one experiment per paper table/figure
//	cmd/...            matchbench, gengraph, graphinfo, commmatrix
//	examples/...       runnable scenarios
//
// The benchmarks in bench_test.go regenerate every evaluation artifact
// of the paper; `go run ./cmd/matchbench -exp all` prints them as text
// tables. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
