package driver_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/coloring"
	"repro/internal/driver"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/transport"
)

// FuzzDriverRun is FuzzMatchingRun's draw for the driver's other two
// applications: a graph of at most 64 vertices (each byte pair an edge,
// duplicates merged, self loops dropped), a model, colouring or BFS from
// a drawn root, 1-8 ranks and a perturbation seed (0 runs unperturbed).
// Colouring must verify and equal Serial's colours; BFS must verify
// against the serial levels. Every run's ledgers must balance and its
// goroutines must be gone. BFS fences each level with an AllreduceInt64
// and the round loops agree on termination with AllreduceScalarInt64,
// so both reductions run here under perturbation.
func FuzzDriverRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 2, 1, 3, 5, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0})
	f.Add([]byte{40, 6, 0, 7, 9, 0, 1, 2, 2, 3, 3, 1, 4, 5, 5, 9, 9, 4, 0, 39, 12, 30, 30, 31})
	f.Add([]byte{63, 4, 1, 5, 0, 17, 0, 1, 0, 2, 1, 3, 2, 3, 17, 40, 40, 41, 41, 63, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 1 + int(data[0])%64
		o := driver.Options{
			Procs:    1 + int(data[3])%8,
			Model:    transport.Models[int(data[1])%len(transport.Models)],
			Deadline: time.Minute,
		}
		if data[4] != 0 {
			o.Perturb, o.PerturbSeed = sched.Full, uint64(data[4])
		}
		var edges []graph.Edge
		for rest := data[6:]; len(rest) >= 2; rest = rest[2:] {
			edges = append(edges, graph.Edge{U: int(rest[0]) % n, V: int(rest[1]) % n, W: 1})
		}
		g := graph.FromEdges(n, edges)
		baseline := runtime.NumGoroutine()
		var rep *mpi.Report
		var name string
		if data[2]&1 == 0 {
			name = fmt.Sprintf("color/%v/p=%d/seed=%d", o.Model, o.Procs, o.PerturbSeed)
			res, err := coloring.Run(g, o)
			if err == nil {
				err = coloring.Verify(g, res.Result)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s := coloring.Serial(g); !slices.Equal(res.Color, s.Color) {
				t.Fatalf("%s: colours %v, serial %v", name, res.Color, s.Color)
			}
			rep = res.Report
		} else {
			root := int(data[5]) % n
			name = fmt.Sprintf("bfs/%v/p=%d/seed=%d/root=%d", o.Model, o.Procs, o.PerturbSeed, root)
			levels, _ := order.BFSLevels(g, root)
			res, err := bfs.Run(g, root, o)
			if err == nil {
				err = bfs.Verify(g, root, res, levels)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rep = res.Report
		}
		if err := mpi.CheckBalanced(rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := mpi.CheckGoroutines(baseline); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}
