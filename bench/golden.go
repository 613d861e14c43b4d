package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// golden.json is the committed digest of every deterministic run of the
// four workloads at the golden seed and full sizes. A change that only
// aims at host speed must reproduce it bit for bit. Any other seed, the
// tiny sizes, or another architecture (floating-point contraction
// differs) falls back to self-consistency: every iteration must repeat
// the warm-up iteration's digests.
const (
	goldenPath = "golden.json"
	goldenSeed = 1
)

type goldenFile struct {
	Seed      int64                        `json:"seed"`
	GOARCH    string                       `json:"goarch"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadGolden(workload string, seed int64, sz sizes) (map[string]string, error) {
	if seed != goldenSeed || sz.name != full.name {
		return nil, nil
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if g.GOARCH != runtime.GOARCH {
		return nil, nil
	}
	digests, ok := g.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("%s has no workload %q (run -update-golden)", goldenPath, workload)
	}
	return digests, nil
}

// updateGolden runs every workload for its minimum iterations under
// self-consistency and records the digests they agreed on.
func updateGolden(sp *spec, sz sizes) error {
	g := goldenFile{Seed: goldenSeed, GOARCH: runtime.GOARCH, Workloads: map[string]map[string]string{}}
	for _, name := range sp.workloadNames() {
		_, r, err := runWorkload(runConfig{workload: name, seed: goldenSeed, sz: sz}, sp)
		if err != nil {
			return err
		}
		if r.failed+r.mismatched > 0 {
			return fmt.Errorf("%s: %d runs failed or disagreed: %v", name, r.failed+r.mismatched, r.problems)
		}
		g.Workloads[name] = r.ref
		fmt.Printf("%s: %d digests\n", name, len(r.ref))
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
