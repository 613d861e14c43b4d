package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestProfileStringParseRoundTrip(t *testing.T) {
	cases := []Profile{
		{},
		Full,
		{Ties: true},
		{Jitter: 0.5},
		{Slowdown: 0.25},
		{ProbeMiss: 0.125},
		{Jitter: 1, Ties: true},
		{Jitter: 2, Slowdown: 0.75, Ties: true, ProbeMiss: 0.5},
	}
	for _, p := range cases {
		s := p.String()
		got, err := ParseProfile(s)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", s, err)
		}
		if got != p {
			t.Errorf("round trip %q: got %+v, want %+v", s, got, p)
		}
	}
}

func TestParseProfileNames(t *testing.T) {
	for _, s := range []string{"", "off", "none"} {
		if p, err := ParseProfile(s); err != nil || p.Enabled() {
			t.Errorf("ParseProfile(%q) = %+v, %v; want disabled profile", s, p, err)
		}
	}
	for _, s := range []string{"full", "all", "default"} {
		if p, err := ParseProfile(s); err != nil || p != Full {
			t.Errorf("ParseProfile(%q) = %+v, %v; want Full", s, p, err)
		}
	}
	for _, s := range []string{"bogus", "jitter", "ties=1", "jitter=-2", "jitter=x"} {
		if _, err := ParseProfile(s); err == nil {
			t.Errorf("ParseProfile(%q) succeeded, want error", s)
		}
	}
}

func TestPerturbDeterministic(t *testing.T) {
	p := Full
	a, b := New(7, p, 4), New(7, p, 4)
	for r := 0; r < 4; r++ {
		ra, rb := a.Rank(r), b.Rank(r)
		for i := 0; i < 100; i++ {
			switch i % 3 {
			case 0:
				if la, lb := ra.Latency(1.5), rb.Latency(1.5); la != lb {
					t.Fatalf("rank %d draw %d: Latency %v != %v", r, i, la, lb)
				}
			case 1:
				if ma, mb := ra.ForceMiss(), rb.ForceMiss(); ma != mb {
					t.Fatalf("rank %d draw %d: ForceMiss %v != %v", r, i, ma, mb)
				}
			case 2:
				if pa, pb := ra.Pick(5), rb.Pick(5); pa != pb {
					t.Fatalf("rank %d draw %d: Pick %v != %v", r, i, pa, pb)
				}
			}
		}
	}
	if New(0, Profile{}, 4) != nil {
		t.Fatalf("New with a disabled profile should return nil")
	}
}

func TestLatencyPreservesCausality(t *testing.T) {
	pt := New(99, Full, 2)
	r := pt.Rank(1)
	for i := 0; i < 1000; i++ {
		base := 1e-6 * float64(i+1)
		if lat := r.Latency(base); lat < base {
			t.Fatalf("Latency(%g) = %g < base: perturbed message would arrive before it was sent", base, lat)
		}
	}
}

func TestForceMissBounded(t *testing.T) {
	// Even at ProbeMiss=1 a poll loop must get a real probe through
	// every maxConsecMiss+1 calls.
	pt := New(3, Profile{ProbeMiss: 1}, 1)
	r := pt.Rank(0)
	consec := 0
	for i := 0; i < 10000; i++ {
		if r.ForceMiss() {
			consec++
			if consec > maxConsecMiss {
				t.Fatalf("%d consecutive forced misses, cap is %d", consec, maxConsecMiss)
			}
		} else {
			consec = 0
		}
	}
}

func TestPickInRange(t *testing.T) {
	pt := New(11, Profile{Ties: true}, 1)
	r := pt.Rank(0)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Pick(4)
		if v < 0 || v >= 4 {
			t.Fatalf("Pick(4) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Fatalf("Pick(4) over 1000 draws hit %d of 4 values", len(seen))
	}
}

// orderRun simulates an order-dependent protocol for explorer testing:
// with Ties enabled the fingerprint varies by seed; otherwise it is
// stable. It lets the shrinking logic be tested hermetically.
func orderRun(seed uint64, p Profile) (Outcome, error) {
	fp := uint64(0xfeed)
	if p.Ties {
		fp = rng.Mix(seed | 1)
	}
	return Outcome{Fingerprint: fp, Desc: fmt.Sprintf("fp=%#x", fp)}, nil
}

func TestExploreCatchesAndShrinks(t *testing.T) {
	fail := Explore(orderRun, Full, 42, 64)
	if fail == nil {
		t.Fatal("Explore missed an order-dependent protocol")
	}
	if !fail.Profile.Ties {
		t.Fatalf("shrunk profile %v lost the class that causes the failure", fail.Profile)
	}
	if got := len(fail.Profile.enabledClasses()); got != 1 {
		t.Fatalf("shrunk profile %v has %d classes, want 1 (ties)", fail.Profile, got)
	}
	// The repro line must actually reproduce.
	if re := Replay(orderRun, fail.Profile, fail.Seed); re == nil {
		t.Fatalf("replaying %s did not reproduce the failure", fail.Repro())
	}
	if !strings.HasPrefix(fail.Repro(), "PERTURB_SEED=0x") || !strings.Contains(fail.Repro(), "PERTURB=ties") {
		t.Fatalf("repro line %q not in replayable form", fail.Repro())
	}
}

func TestExploreCleanProtocolPasses(t *testing.T) {
	clean := func(seed uint64, p Profile) (Outcome, error) {
		return Outcome{Fingerprint: 1, Desc: "stable"}, nil
	}
	if fail := Explore(clean, Full, 1, 32); fail != nil {
		t.Fatalf("clean protocol reported as order-dependent: %v", fail)
	}
}

func TestExploreReportsInvariantErrors(t *testing.T) {
	boom := errors.New("mailbox not drained")
	broken := func(seed uint64, p Profile) (Outcome, error) {
		if p.ProbeMiss > 0 {
			return Outcome{}, boom
		}
		return Outcome{Fingerprint: 1}, nil
	}
	fail := Explore(broken, Full, 5, 16)
	if fail == nil {
		t.Fatal("Explore missed an invariant violation")
	}
	if !errors.Is(fail.Err, boom) {
		t.Fatalf("failure error %v does not wrap the invariant error", fail.Err)
	}
	if fail.Profile.ProbeMiss <= 0 || len(fail.Profile.enabledClasses()) != 1 {
		t.Fatalf("shrunk profile %v, want probemiss only", fail.Profile)
	}
}

func TestExploreBaselineFailure(t *testing.T) {
	broken := func(seed uint64, p Profile) (Outcome, error) {
		return Outcome{}, errors.New("always broken")
	}
	fail := Explore(broken, Full, 5, 4)
	if fail == nil || fail.Profile.Enabled() || fail.Seed != 0 {
		t.Fatalf("baseline failure not reported as such: %+v", fail)
	}
}

func TestSeedAtDecorrelated(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := SeedAt(123, i)
		if seen[s] {
			t.Fatalf("duplicate seed at index %d", i)
		}
		seen[s] = true
	}
}
