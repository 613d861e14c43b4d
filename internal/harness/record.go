package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// SchemaVersion identifies the JSON layout of Document and its nested
// records. Bump it on any field rename or semantic change so downstream
// consumers (the shape-regression suite, plotting scripts) can refuse
// data they do not understand.
//
// v2 added RunRecord.EventsTruncated and the embedded post-mortem
// analysis record (RunRecord.Analysis); v1 documents remain readable
// (both additions are optional fields).
const SchemaVersion = 2

// RunRecord serializes one runtime launch.
type RunRecord struct {
	Label    string `json:"label"`
	App      string `json:"app"`
	Input    string `json:"input"`
	Model    string `json:"model,omitempty"`
	Procs    int    `json:"procs"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	// TimeSec is the run's modeled time: the maximum virtual clock over
	// ranks at completion.
	TimeSec  float64 `json:"time_sec"`
	Rounds   int     `json:"rounds"`
	Messages int64   `json:"messages"`
	// Msgs/Bytes are the runtime ledger totals (every MPI-level message,
	// including collectives), as opposed to Messages, which counts
	// application protocol records.
	Msgs           int64 `json:"mpi_msgs"`
	Bytes          int64 `json:"mpi_bytes"`
	CollOps        int64 `json:"coll_ops"`
	MaxMemoryBytes int64 `json:"max_memory_bytes"`
	// Profile is the §V-D phase breakdown in virtual seconds summed
	// over ranks; RoundSeries is the merged round (or BFS level) series.
	Profile        mpi.PhaseProfile  `json:"profile"`
	RoundSeries    []telemetry.Point `json:"round_series,omitempty"`
	TelemetryDrops int64             `json:"telemetry_drops,omitempty"`
	// EventsTruncated is set when event tracing was enabled and at least
	// one rank's ring dropped events: any trace-derived view of this run
	// (including Analysis) undercounts late activity.
	EventsTruncated bool `json:"events_truncated,omitempty"`
	// Analysis is the post-mortem wait-state / critical-path / efficiency
	// record (Config.Analyze; requires event tracing).
	Analysis *analysis.Record `json:"analysis,omitempty"`
}

// ExperimentRecord serializes one experiment regeneration: its tables
// plus every runtime launch it performed, in launch order.
type ExperimentRecord struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Paper  string      `json:"paper"`
	Tables []*Table    `json:"tables"`
	Runs   []RunRecord `json:"runs"`
}

// Document is the top-level JSON artifact matchbench -json emits.
type Document struct {
	Schema      int                 `json:"schema"`
	Generator   string              `json:"generator"`
	Scale       float64             `json:"scale"`
	Experiments []*ExperimentRecord `json:"experiments"`
}

// NewDocument returns an empty schema-versioned document.
func NewDocument(generator string, scale float64) *Document {
	return &Document{Schema: SchemaVersion, Generator: generator, Scale: scale}
}

// Add appends one experiment record.
func (d *Document) Add(rec *ExperimentRecord) {
	d.Experiments = append(d.Experiments, rec)
}

// Write emits the document as indented JSON, reporting encode and write
// errors (callers surface them instead of truncating silently).
func (d *Document) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("harness: encoding records: %w", err)
	}
	return nil
}

// newRunRecord converts an observed launch into its serialized form.
// With cfg.Analyze set (and event tracing on), the post-mortem analyzer
// runs over the finished report and its record is embedded.
func newRunRecord(info RunInfo, cfg Config) RunRecord {
	tot := info.Report.Totals()
	rr := RunRecord{
		Label:          info.Label,
		App:            info.App,
		Input:          info.Input,
		Model:          info.Model,
		Procs:          info.Procs,
		Vertices:       info.Vertices,
		Edges:          info.Edges,
		TimeSec:        info.Report.MaxVirtualTime,
		Rounds:         info.Rounds,
		Messages:       info.Messages,
		Msgs:           tot.Msgs,
		Bytes:          tot.Bytes,
		CollOps:        tot.CollOps,
		MaxMemoryBytes: tot.MaxMemoryBytes,
		Profile:        info.Report.Profile(),
	}
	if info.Report.EventTracing() {
		for r := 0; r < info.Report.Procs; r++ {
			if info.Report.EventDrops(r) > 0 {
				rr.EventsTruncated = true
				break
			}
		}
		if cfg.Analyze {
			if rec, err := analysis.Analyze(info.Report, analysis.Options{
				Model:     info.Model,
				Telemetry: info.Telemetry,
			}); err == nil {
				rr.Analysis = rec
			}
		}
	}
	if s := info.Telemetry; s != nil {
		rr.TelemetryDrops = s.Drops
		rr.RoundSeries = s.Points
	}
	return rr
}

// FindRuns returns the record's runs matching the given input, model
// and procs; empty strings / zero procs match anything.
func (e *ExperimentRecord) FindRuns(input, model string, procs int) []RunRecord {
	var out []RunRecord
	for _, r := range e.Runs {
		if input != "" && r.Input != input {
			continue
		}
		if model != "" && r.Model != model {
			continue
		}
		if procs != 0 && r.Procs != procs {
			continue
		}
		out = append(out, r)
	}
	return out
}

// RenderRounds writes the run's convergence series as an aligned text
// table (the -rounds view): one row per round with virtual time,
// unresolved cross edges, done fraction, per-kind message deltas, byte
// volume and queue depth.
func (r *RunRecord) RenderRounds(w io.Writer) {
	if len(r.RoundSeries) == 0 {
		return
	}
	t := &Table{ID: "rounds", Title: "convergence of " + r.Label,
		Headers: []string{"round", "t(ms)", "unresolved", "done%", "REQ", "REJ", "INV", "bytes", "maxlink", "maxqueue"}}
	for _, p := range r.RoundSeries {
		t.AddRow(fmt.Sprint(p.Round), fmt.Sprintf("%.3f", p.Time*1e3),
			fmt.Sprint(p.Unresolved), f2(100*p.DoneFrac),
			fmt.Sprint(p.Req), fmt.Sprint(p.Rej), fmt.Sprint(p.Inv),
			fmt.Sprint(p.Bytes), fmt.Sprint(p.MaxLinkBytes), fmt.Sprint(p.MaxQueueBytes))
	}
	if r.TelemetryDrops > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%d rounds dropped (raise the round-log capacity)", r.TelemetryDrops))
	}
	t.Render(w)
}
