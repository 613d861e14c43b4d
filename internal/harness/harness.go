// Package harness regenerates every table and figure of the paper's
// evaluation section (§V) at laptop scale. Each experiment is a
// registry entry keyed by the paper's artifact id (fig4a, tab8, ...);
// running one produces text tables — the same rows or series the paper
// reports — annotated with the shape the paper observed so the output
// is self-checking. See DESIGN.md §5 for the full index.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// Config scales and parameterizes experiment runs.
type Config struct {
	// Scale multiplies workload sizes; 1.0 is the default laptop scale
	// (graphs of 10^5..10^6 arcs, up to 64 simulated ranks). Tests,
	// tier-2 and bench/ use smaller scales to stay within their budgets.
	Scale float64
	// Cost overrides the runtime cost model (nil = defaults).
	Cost *mpi.CostModel
	// Deadline per runtime launch (0 = none).
	Deadline time.Duration
	// Out receives progress and tables; nil discards progress output.
	Out io.Writer
	// Models restricts which communication models the model-comparison
	// experiments exercise (nil = each experiment's default set). The
	// filter preserves the experiment's ordering; an empty intersection
	// falls back to the defaults so fixed-column experiments stay valid.
	Models []matching.Model
	// Engine selects the matching protocol family every matching launch
	// uses (matchbench -engine). The zero value is the paper's
	// half-approximate locally-dominant protocol; EngineMaximal swaps in
	// the asynchronous maximal-matching engine (DESIGN §4f). The
	// ext-async experiment ignores it — it compares engines explicitly.
	Engine matching.Engine
	// TraceEvents, when > 0, enables structured event tracing on every
	// launched run with the given per-rank ring capacity.
	TraceEvents int
	// Analyze runs the post-mortem trace analyzer (internal/analysis)
	// over every launched run and embeds the result in its RunRecord.
	// Requires event tracing; RunOneRecord defaults TraceEvents to a
	// 64K-event ring when Analyze is set without it.
	Analyze bool
	// Rounds, when > 0, enables round-level telemetry on every launched
	// run with the given per-rank log capacity; the merged series lands
	// in each RunInfo (and RunRecord.RoundSeries).
	Rounds int
	// Profile appends a per-experiment phase-profile table (the §V-D
	// compute/pack/exchange/unpack/wait breakdown) covering every run
	// the experiment launched.
	Profile bool
	// OnRun, if set, observes every successful runtime launch. Used to
	// collect Chrome traces and the machine-readable run records.
	OnRun func(info RunInfo)
	// Ranks caps the world sizes the rank-count scaling experiment
	// ("ranks") sweeps: the ladder 1024/4096/16384/65536 is filtered to
	// sizes <= Ranks. 0 means the experiment default (16384, CI-sized);
	// 65536 runs the full curve. Other experiments ignore it — their
	// rank counts are paper artifacts scaled by Scale.
	Ranks int
	// Perturb, when enabled, runs every launch under seeded
	// schedule perturbation with PerturbSeed (matchbench -perturb /
	// -perturb-seed; see internal/sched). Results are unchanged for the
	// default protocol — only delivery schedules and virtual timings
	// vary — so perturbed harness runs double as an end-to-end
	// schedule-invariance check.
	Perturb     sched.Profile
	PerturbSeed uint64
}

// RunInfo describes one completed runtime launch, delivered to
// Config.OnRun and serialized as a RunRecord.
type RunInfo struct {
	// Label identifies the configuration in human-readable output
	// ("rgg-weak NCL p=16 |V|=4096").
	Label string
	// App is the algorithm: "matching", "coloring", "bfs" or "ring".
	App string
	// Input is the workload identifier ("rgg-weak", "Friendster-analogue").
	Input string
	// Model is the communication model's name; empty for BFS, which has
	// its own fixed exchange structure.
	Model string
	// Procs is the simulated rank count.
	Procs int
	// Vertices and Edges describe the input graph.
	Vertices int
	Edges    int64
	// Outcome is the driver's record of the run: rounds (BFS levels),
	// protocol messages, the runtime report and the merged round series
	// (nil unless Config.Rounds).
	*driver.Outcome
}

// DefaultConfig returns the standard full-scale configuration.
func DefaultConfig() Config {
	return Config{Scale: 1.0, Deadline: 10 * time.Minute}
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 8 {
		v = 8
	}
	return v
}

// scaledProcs shrinks a process count linearly with Scale, never below
// 2; Scale >= 1 leaves it alone. Tier-2's shape thresholds are tuned to
// the process counts this yields at SHAPE_SCALE.
func (c Config) scaledProcs(p int) int {
	if c.Scale >= 1 {
		return p
	}
	v := int(float64(p) * c.Scale)
	if v < 2 {
		v = 2
	}
	return v
}

// models applies the Config.Models filter to an experiment's default
// model list, keeping the defaults' order.
func (c Config) models(defaults []matching.Model) []matching.Model {
	if len(c.Models) == 0 {
		return defaults
	}
	out := make([]matching.Model, 0, len(defaults))
	for _, m := range defaults {
		for _, want := range c.Models {
			if m == want {
				out = append(out, m)
				break
			}
		}
	}
	if len(out) == 0 {
		return defaults
	}
	return out
}

// observe reports a finished launch on g (nil for a run without an
// input graph) to Config.OnRun, if registered. Every RunInfo is built
// here.
func (c Config) observe(label, app, input, model string, g *graph.CSR, p int, out *driver.Outcome) {
	if c.OnRun == nil {
		return
	}
	info := RunInfo{Label: label, App: app, Input: input, Model: model, Procs: p, Outcome: out}
	if g != nil {
		info.Vertices, info.Edges = g.NumVertices(), g.NumEdges()
	}
	c.OnRun(info)
}

func (c Config) logf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// Table is one rendered artifact: a titled grid of cells plus notes
// recording the paper-reported shape it should reproduce. It is
// serialized as is in ExperimentRecord.Tables.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the paper artifact id: fig2, fig4a..fig4c, tab3, fig5, fig6,
	// tab4, fig7, tab5, tab6, fig8, fig9, tab7, fig10, tab8, fig11.
	ID string
	// Title describes the artifact.
	Title string
	// Paper summarizes the shape the paper reported.
	Paper string
	// Run executes the experiment.
	Run func(cfg Config) ([]*Table, error)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment { return registry[id] }

// IDs returns all registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunOneRecord executes the experiment with the given id under cfg and
// renders its tables to w. With cfg.Profile set, a phase-profile table
// covering every run the experiment launched is appended. Alongside the
// rendered text it returns the experiment's tables and every launched
// run as a schema-versioned ExperimentRecord (see record.go).
func RunOneRecord(id string, cfg Config, w io.Writer) (*ExperimentRecord, error) {
	e := Find(id)
	if e == nil {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	fmt.Fprintf(w, "# %s — %s\n# paper: %s\n\n", e.ID, e.Title, e.Paper)
	rec := &ExperimentRecord{ID: e.ID, Title: e.Title, Paper: e.Paper}
	if cfg.Analyze && cfg.TraceEvents == 0 {
		cfg.TraceEvents = 1 << 16
	}
	var prof *Table
	if cfg.Profile {
		prof = &Table{ID: id, Title: "phase profile (virtual seconds summed over ranks; §V-D breakdown)",
			Headers: []string{"run", "compute", "pack", "exchange", "unpack", "wait", "mpi%", "wait%"}}
	}
	inner := cfg.OnRun
	cfg.OnRun = func(info RunInfo) {
		rec.Runs = append(rec.Runs, newRunRecord(info, cfg))
		if prof != nil {
			p := info.Report.Profile()
			prof.AddRow(info.Label, fsec(p.Compute), fsec(p.Pack), fsec(p.Exchange), fsec(p.Unpack), fsec(p.Wait),
				f2(100*p.MPIFrac()), f2(100*p.WaitFrac()))
		}
		if inner != nil {
			inner(info)
		}
	}
	tables, err := e.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", id, err)
	}
	for _, t := range tables {
		t.Render(w)
	}
	rec.Tables = tables
	if prof != nil && len(prof.Rows) > 0 {
		prof.Render(w)
	}
	return rec, nil
}

// f2 formats a float with 2 decimals; f3 with 3; fx chooses compactly.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// fsec formats virtual seconds compactly (profiles span ms to minutes).
func fsec(v float64) string { return fmt.Sprintf("%.4g", v) }

// ms formats seconds of virtual time as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.3fms", sec*1e3) }

// speedup formats a ratio like the paper ("2.3x"), or "-" when either
// run is missing (a model filter can leave the baseline out).
func speedup(base, t float64) string {
	if base <= 0 || t <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", base/t)
}
