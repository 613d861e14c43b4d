package mpi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTraceRun is a fully deterministic traced scenario: no probes
// (whose hit/miss outcomes depend on real scheduling), only blocking
// operations whose virtual timestamps follow from the cost model alone.
func goldenTraceRun(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(100)
			c.Isend(1, 7, []int64{1, 2, 3})
		} else {
			c.Recv(0, 7)
		}
		c.Barrier()
		return nil
	}, WithEventTrace(64), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTraceRun(t).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter emitted invalid JSON:\n%s", buf.String())
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden file (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenTraceRun(t).WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenTraceRun(t).WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two identical runs exported different traces:\n%s\nvs:\n%s", a.String(), b.String())
	}
}

// TestChromeTraceStructure decodes the export and checks the document
// shape the viewers rely on: metadata rows naming process and threads,
// complete ("X") slices with microsecond timestamps and args.
func TestChromeTraceStructure(t *testing.T) {
	tr := NewChromeTrace()
	tr.Add("run A", goldenTraceRun(t), nil)
	tr.Add("run B", goldenTraceRun(t), nil)
	tr.Add(awkwardLabel, goldenTraceRun(t), nil)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter emitted invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	meta, slices := 0, 0
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name == "process_name" && e.Pid == 2 {
				if got, want := e.Args["name"], jsonRoundTrip(t, awkwardLabel); got != want {
					t.Errorf("process label decoded as %q, want %q", got, want)
				}
			}
		case "X":
			slices++
			if e.Ts < 0 || e.Dur < 0 {
				t.Errorf("slice %q has negative ts/dur: %+v", e.Name, e)
			}
			if _, ok := e.Args["bytes"]; !ok {
				t.Errorf("slice %q missing bytes arg", e.Name)
			}
			if e.Cat == "" {
				t.Errorf("slice %q missing category", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
		pids[e.Pid] = true
	}
	// 3 runs x (1 process_name + 2 thread_name) metadata rows.
	if meta != 9 {
		t.Errorf("metadata rows = %d, want 9", meta)
	}
	if slices == 0 {
		t.Error("no slices exported")
	}
	if len(pids) != 3 {
		t.Errorf("distinct pids = %d, want one per run", len(pids))
	}
}

// awkwardLabel holds every byte class a JSON string must treat
// specially: a quote, a backslash, a named and an unnamed control
// character, and a byte that is not UTF-8.
const awkwardLabel = "a\"b\\c\nd\x01e\xfff"

// jsonRoundTrip is what s reads back as after encoding/json has written
// and read it (invalid UTF-8 becomes U+FFFD).
func jsonRoundTrip(t *testing.T, s string) string {
	t.Helper()
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back string
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{"", "plain", awkwardLabel, "tab\there\r", "\x00\x1f\x7f", "naïve ✓ \U0001F600", "\xc3", "\xe2\x82", "\ufffd"} {
		enc := AppendJSONString([]byte("x"), s)
		if enc[0] != 'x' {
			t.Fatalf("AppendJSONString(%q) overwrote its prefix: %q", s, enc)
		}
		var back string
		if err := json.Unmarshal(enc[1:], &back); err != nil {
			t.Errorf("AppendJSONString(%q) = %s: %v", s, enc[1:], err)
			continue
		}
		if want := jsonRoundTrip(t, s); back != want {
			t.Errorf("AppendJSONString(%q) decodes as %q, want %q", s, back, want)
		}
	}
}

// referenceWrite is the fmt-based exporter the append writer replaced,
// kept as the obviously-correct reference its output is compared with.
func referenceWrite(t *ChromeTrace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"traceEvents\":[")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
		fmt.Fprintf(bw, format, args...)
	}
	for pid, rep := range t.reports {
		emit(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			pid, strconv.Quote(t.labels[pid]))
		for rank := 0; rank < rep.Procs; rank++ {
			if d := rep.EventDrops(rank); d > 0 {
				emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"rank %d (dropped %d)"}}`,
					pid, rank, rank, d)
			} else {
				emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"rank %d"}}`,
					pid, rank, rank)
			}
			for _, e := range flatEvents(rep.Events(rank)) {
				if e.Kind == EvWait && e.Class != WaitNone {
					emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"%s","cat":"wait","args":{"peer":%d,"bytes":0,"class":"%s","cause_t":%s}}`,
						pid, rank, referenceUsec(e.Start), referenceUsec(e.Duration()),
						e.Kind.String(), e.Peer, e.Class.String(), referenceUsec(e.CauseT))
					continue
				}
				emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"%s","cat":"%s","args":{"peer":%d,"tag":%d,"bytes":%d}}`,
					pid, rank, referenceUsec(e.Start), referenceUsec(e.Duration()),
					e.Kind.String(), e.Kind.Category(), e.Peer, e.Tag, e.Bytes)
			}
		}
	}
	fmt.Fprint(bw, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// referenceUsec is the strconv formatting AppendUsec reproduces.
func referenceUsec(sec float64) string {
	s := strconv.FormatFloat(sec*1e6, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// everyKindRun is a traced run that records every EventKind and every
// WaitClass on every rank, after which rank 0 alone polls until its log
// has dropped events; the capacity spans several chunks.
func everyKindRun(t *testing.T) *Report {
	t.Helper()
	const p, capacity = 3, 2*eventChunk + 44
	rep, err := eventRun(p, capacity, func(c *Comm) error {
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		c.Compute(float64(1000 * (c.Rank() + 1))) // stagger: genuine waits
		c.Isend(next, 3, []int64{1, 2, 3})
		c.Probe(prev, 3)
		c.Iprobe(prev, 3)
		c.Iprobe(next, 9) // a miss
		c.Recv(prev, 3)
		c.waitUntil(c.Now() + 1e-6)
		c.Barrier()
		c.AllreduceScalarInt64(OpSum, 1)

		topo := c.CreateGraphTopo([]int{prev, next})
		c.Compute(float64(500 * (p - c.Rank())))
		topo.NeighborAlltoallvInt64([][]int64{{1}, {2, 3}})
		topo.INeighborAlltoallvInt64([][]int64{{4}, {5}}).WaitInto(nil)

		win := c.WinCreate(8)
		win.Put(next, 0, []int64{7, 8})
		win.FlushAll()
		c.Barrier()
		win.Free()

		if c.Rank() == 0 {
			for i := 0; i < capacity+10; i++ {
				c.Iprobe(next, 9)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var kinds [numEventKinds]bool
	var classes [numWaitClasses]bool
	for rank := 0; rank < p; rank++ {
		for _, e := range flatEvents(rep.Events(rank)) {
			kinds[e.Kind] = true
			if e.Kind == EvWait {
				classes[e.Class] = true
			}
		}
	}
	for k, seen := range kinds {
		if !seen {
			t.Errorf("run recorded no %v event", EventKind(k))
		}
	}
	for w, seen := range classes {
		if !seen {
			t.Errorf("run recorded no %v wait", WaitClass(w))
		}
	}
	if rep.EventDrops(0) == 0 || rep.EventDrops(1) != 0 {
		t.Errorf("drops = %d on rank 0, %d on rank 1; want some and none", rep.EventDrops(0), rep.EventDrops(1))
	}
	return rep
}

// TestChromeTraceMatchesReference holds the append writer to the bytes
// of the fmt-based one it replaced, over every slice shape the runtime
// can record, a rank with drops, and a second run in the same document.
func TestChromeTraceMatchesReference(t *testing.T) {
	tr := NewChromeTrace()
	tr.Add("every kind", everyKindRun(t), nil)
	tr.Add("golden", goldenTraceRun(t), nil)
	var got, want bytes.Buffer
	if err := tr.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := referenceWrite(tr, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d differs from the reference writer:\ngot:  %s\nwant: %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("wrote %d lines, reference %d", len(g), len(w))
	}
	if !json.Valid(got.Bytes()) {
		t.Error("exporter emitted invalid JSON")
	}
}

// TestChromeTraceOverlay: an overlay's elements land right after its
// run's rank tracks, under the run's pid, through the writer's flush
// path; without them the document is the one written with no overlay.
func TestChromeTraceOverlay(t *testing.T) {
	const rows = 4 * traceFlushBytes / 40 // several buffers' worth
	overlay := func(b []byte, elem func([]byte) []byte, pid int, rep *Report) []byte {
		for i := 0; i < rows; i++ {
			b = append(elem(b), `{"ph":"C","pid":`...)
			b = strconv.AppendInt(b, int64(pid), 10)
			b = append(b, `,"name":"n","ts":`...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `,"args":{"value":`...)
			b = strconv.AppendInt(b, int64(rep.Procs), 10)
			b = append(b, `}}`...)
		}
		return b
	}
	plain, drawn := NewChromeTrace(), NewChromeTrace()
	plain.Add("run A", goldenTraceRun(t), nil)
	plain.Add("run B", goldenTraceRun(t), nil)
	drawn.Add("run A", goldenTraceRun(t), nil)
	drawn.Add("run B", goldenTraceRun(t), overlay)
	var want, got bytes.Buffer
	if err := plain.Write(&want); err != nil {
		t.Fatal(err)
	}
	if err := drawn.Write(&got); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(got.Bytes()) {
		t.Fatal("exporter emitted invalid JSON")
	}
	lines := strings.Split(got.String(), "\n")
	const row = `{"ph":"C","pid":1,"name":"n","ts":`
	first := -1
	var kept []string
	for i, line := range lines {
		if strings.HasPrefix(line, row) {
			if first < 0 {
				first = i
			}
			continue
		}
		kept = append(kept, line)
	}
	if n := len(lines) - len(kept); n != rows {
		t.Fatalf("document holds %d overlay rows, want %d", n, rows)
	}
	// The document ends "\n],...}\n": the footer and an empty line.
	if want := len(lines) - 2 - rows; first != want {
		t.Errorf("overlay rows start at line %d, want %d: after run B's rank tracks", first, want)
	}
	// Without the overlay, run B's last rank row ends the list.
	kept[first-1] = strings.TrimSuffix(kept[first-1], ",")
	if strings.Join(kept, "\n") != want.String() {
		t.Errorf("rows outside the overlay differ from the document written without it")
	}
}

// failAfter fails every write after the first n bytes.
type failAfter struct {
	n      int
	err    error
	failed int // writes refused
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		f.failed++
		return 0, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestChromeTraceWriteError: the writer's first error is what Write
// returns, and nothing more is written after it.
func TestChromeTraceWriteError(t *testing.T) {
	rep := everyKindRun(t)
	tr := NewChromeTrace()
	for i := 0; i < 4; i++ { // several buffers' worth
		tr.Add("run", rep, nil)
	}
	var all bytes.Buffer
	if err := tr.Write(&all); err != nil {
		t.Fatal(err)
	}
	if all.Len() < 3*traceFlushBytes {
		t.Fatalf("document is %d bytes: too small to need several writes", all.Len())
	}
	boom := errors.New("disk full")
	for _, room := range []int{0, traceFlushBytes + 2048, all.Len() - 1} {
		w := &failAfter{n: room, err: boom}
		if err := tr.Write(w); err != boom {
			t.Errorf("Write with room for %d bytes returned %v, want the writer's error", room, err)
		}
		if w.failed != 1 {
			t.Errorf("Write with room for %d bytes: %d writes attempted after the failure, want none", room, w.failed-1)
		}
	}
}

func FuzzAppendUsec(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 5e-10, 1e-9, 1.5e-9, 2.5e-9, 62.5e-9, 0.0625e-6,
		1e-6, 0.001, 1, 12.345678, 1234.5678e-6, 3600, -1e-3, -5e-10,
		5e-324, 2.2250738585072014e-308, 1e-300, 1e-20,
		(1 << 52) * 1e-6, (1<<52 - 1) * 1e-6, 1 << 52, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for k := 0; k < 64; k++ {
		seeds = append(seeds, (float64(k)+0.5)*1e-9, (float64(k*977)+0.5)*1e-9)
	}
	for _, s := range seeds {
		f.Add(math.Float64bits(s))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		sec := math.Float64frombits(bits)
		got := AppendUsec([]byte("ts:"), sec)
		if want := "ts:" + referenceUsec(sec); string(got) != want {
			t.Errorf("AppendUsec(%v [%#x]) = %q, want %q", sec, bits, got, want)
		}
	})
}

// TestAppendUsecTies runs the FuzzAppendUsec comparison where random
// inputs almost never land: on and beside the exact rounding ties, and
// at both ends of every binade. x·1000 is an integer and a half only for
// x = j/16 with j odd (x·1000 = 62.5·j).
func TestAppendUsecTies(t *testing.T) {
	check := func(sec float64) {
		t.Helper()
		got := AppendUsec(nil, sec)
		if want := referenceUsec(sec); string(got) != want {
			t.Fatalf("AppendUsec(%v [%#x]) = %q, want %q", sec, math.Float64bits(sec), got, want)
		}
	}
	ties := 0
	for j := 1; j < 40000; j += 2 {
		x := float64(j) / 16
		sec := x / 1e6
		for _, s := range []float64{math.Nextafter(sec, 0), sec, math.Nextafter(sec, 1)} {
			if s*1e6 == x {
				ties++
			}
			check(s)
		}
	}
	if ties < 5000 {
		t.Errorf("only %d inputs landed on an exact tie", ties)
	}
	for e := -1074; e <= 1023; e++ {
		for _, m := range []float64{1, 1.5, math.Nextafter(1, 2), math.Nextafter(2, 1)} {
			check(math.Ldexp(m, e))
		}
	}
}
