package mpi

import (
	"strings"
	"testing"
	"time"
)

func TestWaitSpansRecorded(t *testing.T) {
	rep, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(100000) // keep rank 1 waiting
			c.Isend(1, 0, []int64{1})
		} else {
			c.Recv(0, 0)
		}
		return nil
	}, WithEventTrace(64), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	waits := func(rank int) []Event {
		var out []Event
		for _, e := range flatEvents(rep.Events(rank)) {
			if e.Kind == EvWait {
				out = append(out, e)
			}
		}
		return out
	}
	if spans := waits(0); len(spans) != 0 {
		t.Fatalf("busy sender recorded waits: %v", spans)
	}
	spans := waits(1)
	if len(spans) == 0 || spans[0].Duration() <= 0 {
		t.Fatalf("spans = %v", spans)
	}
}

func TestRenderTimeline(t *testing.T) {
	rep, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(100000)
			c.Isend(1, 0, []int64{1})
		} else {
			c.Recv(0, 0)
		}
		return nil
	}, WithEventTrace(64), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	lines := rep.RenderTimeline(40)
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[1], "#") {
		t.Errorf("waiting rank shows no wait marks: %q", lines[1])
	}
	if strings.Contains(lines[0], "#") {
		t.Errorf("busy rank shows wait marks: %q", lines[0])
	}
}

func TestTimelineDisabledWithoutTrace(t *testing.T) {
	rep, err := Run(1, func(c *Comm) error { c.Compute(10); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.RenderTimeline(10) != nil || rep.Events(0).Len() != 0 {
		t.Error("tracing data present without event tracing")
	}
}
