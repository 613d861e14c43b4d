package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// specPath is BENCHMARK.json as seen from the benchmark's directory,
// where `go run -C bench .` and `go test` both run.
const specPath = "../BENCHMARK.json"

// spec mirrors BENCHMARK.json, the one place metric names, units and
// bounds are declared; the program emits nothing the file does not name.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// all lists the end-to-end metrics, then the per-layer ones.
func (s *spec) all() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...)
}

func (s *spec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// metric and result are the line the driver reads: the last line of
// standard output of a single-workload run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quartiles returns the median and the first and third quartile the way
// Python's statistics.quantiles(v, n=4) gives them (exclusive method),
// which is what the driver applies to the per-run values. With fewer
// than two values both quartiles equal the median.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 3 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
