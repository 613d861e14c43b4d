package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one of the four pipelines. setup builds the inputs and
// their serial references from the seed; iterate runs the whole pipeline
// once; layers times single public calls of the layers this workload is
// meant to move (traced pass only).
type workload interface {
	setup(seed int64, r *recorder)
	iterate(r *recorder)
	layers(r *recorder)
}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "rgg-sparse":
		return &matchLoad{sz: sz}, nil
	case "sbp-dense":
		return &matchLoad{sz: sz, dense: true}, nil
	case "world-16k":
		return &worldLoad{sz: sz}, nil
	case "traced-mixed":
		return &mixedLoad{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// recorder collects what one run of one workload produces: metric
// samples, the verdict on every simulated run, and (traced pass) spans.
type recorder struct {
	tr      *tracer
	samples map[string][]float64

	// failed counts runs that ended in an error, a deadline, a Verify
	// failure or a result other than the serial one; mismatched counts
	// runs that verified but whose digest differs from the reference.
	attempted, failed, mismatched int
	problems                      []string
	records                       int64 // protocol records delivered this iteration

	// ref holds the digest every run must reproduce: the golden file for
	// the committed seed, otherwise whatever the warm-up iteration saw.
	ref    map[string]string
	golden bool
}

func (r *recorder) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// span times f, records it as a span when tracing, and returns seconds.
func (r *recorder) span(name, layer string, f func()) float64 {
	id := r.tr.begin(name, layer)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	r.tr.end(id)
	return d
}

// verdict closes one simulated run: err fails it; otherwise its digest
// must equal the reference for key, or the run is a mismatch. An empty
// digest claims nothing (the result is legitimately schedule-dependent
// and was verified instead).
func (r *recorder) verdict(key string, err error, digest string, records int64) {
	r.attempted++
	r.records += records
	if err != nil {
		r.failed++
		r.problem(key, err.Error())
		return
	}
	if digest == "" {
		return
	}
	want, ok := r.ref[key]
	switch {
	case ok && want != digest:
		r.mismatched++
		r.problem(key, fmt.Sprintf("digest %q, want %q", digest, want))
	case !ok && r.golden:
		r.mismatched++
		r.problem(key, "no golden digest (run -update-golden)")
	case !ok:
		r.ref[key] = digest
	}
}

func (r *recorder) problem(key, what string) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, key+": "+what)
	}
}

func bits(f float64) uint64 { return math.Float64bits(f) }

// rusage returns the process's CPU seconds so far (user + system) and
// its high-water resident set in MB (ru_maxrss is in KiB on Linux).
func rusage() (cpu, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// spinNS times a fixed pure-CPU loop: no memory traffic, no goroutine
// hand-offs, nothing of the repository's. It is sampled beside every
// iteration and recorded as host.spin_ns, so that a pass taken while a
// neighbour held the host is recognisable in a results file. It gates
// nothing and scales nothing.
func spinNS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	if x == 0 {
		return 0 // unreachable: keeps the loop's result live
	}
	return float64(d.Nanoseconds())
}

// Set-up repeats at least setupReps times and until setupSeconds have
// gone (at most sizes.setupMaxReps), so that a 40 ms set-up gets as steady
// a median as an 800 ms one.
const (
	setupReps    = 5
	setupSeconds = 2.0
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	golden   map[string]string // nil: self-consistency against the warm-up
	spans    string            // traced pass: where to write the spans
}

// runWorkload is one pass over one workload: repeated set-up, a warm-up
// iteration (verified, not timed), then closed-loop iterations for the
// measuring time. The untraced pass yields the end-to-end metrics; the
// traced pass halves the loop and spends the rest on layer timings.
func runWorkload(cfg runConfig, sp *spec) (*result, *recorder, error) {
	w, err := newWorkload(cfg.workload, cfg.sz)
	if err != nil {
		return nil, nil, err
	}
	r := &recorder{samples: map[string][]float64{}, ref: map[string]string{}}
	if cfg.golden != nil {
		r.ref, r.golden = cfg.golden, true
	}
	if cfg.trace {
		r.tr = newTracer(cfg.workload)
	}

	for i, t0 := 0, time.Now(); i < setupReps || (i < cfg.sz.setupMaxReps && time.Since(t0).Seconds() < setupSeconds); i++ {
		runtime.GC()
		r.add("setup_s", r.span("setup", "bench", func() { w.setup(cfg.seed, r) }))
	}

	r.tr.setIter(iterWarmup)
	r.span("iteration", "bench", func() { w.iterate(r) })

	budget, minIters := cfg.seconds, cfg.sz.minIters
	if cfg.trace {
		budget, minIters = cfg.seconds/2, 3
	}
	start := time.Now()
	for n := 0; n < minIters || time.Since(start).Seconds() < budget; n++ {
		r.tr.setIter(n)
		// Start every iteration from a collected heap, as testing.B does,
		// so one iteration's garbage is not the next one's pause.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r.records = 0
		cpu0, _ := rusage()
		wall := r.span("iteration", "bench", func() { w.iterate(r) })
		cpu1, _ := rusage()
		runtime.ReadMemStats(&m1)
		r.add("wall_s", wall)
		r.add("cpu_s", cpu1-cpu0)
		r.add("records_per_s", float64(r.records)/wall)
		r.add("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		r.add("host.spin_ns", spinNS())
	}
	_, rss := rusage()
	r.add("peak_rss_mb", rss)

	declared := sp.EndToEnd
	if cfg.trace {
		declared = sp.PerLayer
		r.tr.setIter(iterLayers)
		w.layers(r)
		r.traceMetrics()
		if cfg.spans != "" {
			if err := r.tr.write(cfg.spans); err != nil {
				return nil, nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}

	r.add("virt_mismatch", float64(r.mismatched))
	r.add("failed_frac", float64(r.failed)/float64(r.attempted))
	bad := r.failed + r.mismatched
	res := &result{Correct: bad == 0, Attempted: r.attempted, Failed: bad, Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, m := range sp.all() {
		known[m.Name] = true
	}
	for name := range r.samples {
		if !known[name] {
			return nil, nil, fmt.Errorf("metric %q is not declared in %s", name, specPath)
		}
	}
	for _, m := range declared {
		v, ok := r.samples[m.Name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		// A per-layer metric this workload does not exercise reads 0.
		val := 0.0
		if ok {
			val = median(v)
		}
		res.Metrics[m.Name] = metric{Value: val, Unit: m.Unit}
	}
	return res, r, nil
}

// traceMetrics turns the spans of the timed iterations into per-layer
// self times (median over iterations) and the share of the iteration that
// named layer spans account for. trace.wall_s is the traced iteration;
// its ratio to the untraced wall_s is the tracing overhead.
func (r *recorder) traceMetrics() {
	for iter, layers := range r.tr.selfTimes() {
		if iter < 0 {
			continue
		}
		total := 0.0
		for _, layer := range traceLayers {
			r.add("trace.self_s."+layer, layers[layer])
			total += layers[layer]
		}
		r.add("trace.coverage_frac", 1-layers["bench"]/total)
	}
	r.samples["trace.wall_s"] = r.samples["wall_s"]
}

// traceLayers are the span layers: the repo's modules the benchmark
// calls, "world" for the time inside an application's mpi.Run (kernel,
// transport and runtime interleaved on the rank goroutines, which only
// the layer timings apportion), and "bench" for the benchmark's own glue.
var traceLayers = []string{"bench", "matching", "world", "mpi", "coloring", "bfs", "analysis", "harness"}

// report prints everything the pass measured by name with its unit
// (whichever list declares it), then what failed.
func report(sp *spec, res *result, r *recorder) {
	unit := map[string]string{}
	for _, m := range sp.all() {
		unit[m.Name] = m.Unit
	}
	names := make([]string, 0, len(r.samples))
	for n := range r.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		q1, med, q3 := quartiles(r.samples[n])
		fmt.Printf("%-44s %14.6g %-8s q1 %.6g q3 %.6g n %d\n", n, med, unit[n], q1, q3, len(r.samples[n]))
	}
	unexercised := 0
	for n := range res.Metrics {
		if _, ok := r.samples[n]; !ok {
			unexercised++
		}
	}
	if unexercised > 0 {
		fmt.Printf("%d per-layer metrics are not exercised by this workload and read 0\n", unexercised)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "FAILED", p)
	}
}
