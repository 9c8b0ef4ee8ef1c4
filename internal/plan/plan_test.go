package plan

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/structure"
)

// mk builds a plan stub with the given time (ms) and price (micro$).
func mk(ms int64, micros int64) *Plan {
	return &Plan{
		Location:  Cache,
		Outcome:   cost.Outcome{Time: time.Duration(ms) * time.Millisecond},
		ExecPrice: money.FromMicros(micros),
	}
}

func TestPriceSumsExecAndAmort(t *testing.T) {
	p := mk(10, 100)
	p.AmortPrice = money.FromMicros(50)
	if got := p.Price(); got != money.FromMicros(150) {
		t.Errorf("Price = %v", got)
	}
}

func TestRunnable(t *testing.T) {
	p := mk(10, 100)
	if !p.Runnable() {
		t.Error("plan with no missing structures must be runnable")
	}
	p.Missing = []*structure.Structure{{ID: "col:x.y", Kind: structure.KindColumn}}
	if p.Runnable() {
		t.Error("plan with missing structures must not be runnable")
	}
}

func TestSkylineKeepsParetoFront(t *testing.T) {
	a := mk(10, 500) // fast, expensive
	b := mk(20, 300) // mid
	c := mk(30, 100) // slow, cheap
	d := mk(25, 400) // dominated by b (slower and pricier)
	e := mk(10, 600) // dominated by a (same time, pricier)
	got := Skyline([]*Plan{d, c, e, a, b})
	if len(got) != 3 {
		t.Fatalf("skyline size = %d (%v), want 3", len(got), got)
	}
	want := []*Plan{a, b, c}
	for i, p := range want {
		if got[i] != p {
			t.Errorf("skyline[%d] = %v, want %v", i, got[i], p)
		}
	}
}

func TestSkylineSmallInputs(t *testing.T) {
	if got := Skyline(nil); len(got) != 0 {
		t.Error("nil input")
	}
	one := []*Plan{mk(1, 1)}
	got := Skyline(one)
	if len(got) != 1 || got[0] != one[0] {
		t.Error("single plan must survive")
	}
	// Input must not be reordered.
	in := []*Plan{mk(30, 100), mk(10, 500)}
	Skyline(in)
	if in[0].Outcome.Time != 30*time.Millisecond {
		t.Error("input slice mutated")
	}
}

func TestSkylineEqualPlans(t *testing.T) {
	a, b := mk(10, 100), mk(10, 100)
	got := Skyline([]*Plan{a, b})
	if len(got) != 1 {
		t.Fatalf("want single survivor among ties, got %d", len(got))
	}
}

func TestCheapestAndFastest(t *testing.T) {
	a := mk(10, 500)
	b := mk(20, 300)
	c := mk(30, 100)
	plans := []*Plan{a, b, c}
	if Cheapest(plans) != c {
		t.Error("Cheapest wrong")
	}
	if Fastest(plans) != a {
		t.Error("Fastest wrong")
	}
	if Cheapest(nil) != nil || Fastest(nil) != nil {
		t.Error("empty input must return nil")
	}
	// Tie-breaks: same price -> faster wins; same time -> cheaper wins.
	d := mk(5, 100)
	if Cheapest([]*Plan{c, d}) != d {
		t.Error("price tie should break toward faster")
	}
	e := mk(10, 400)
	if Fastest([]*Plan{a, e}) != e {
		t.Error("time tie should break toward cheaper")
	}
}

func TestPartition(t *testing.T) {
	a := mk(10, 100)
	b := mk(20, 200)
	b.Missing = []*structure.Structure{structure.CPUNode(2)}
	c := mk(30, 300)
	exist, possible := Partition([]*Plan{a, b, c})
	if len(exist) != 2 || exist[0] != a || exist[1] != c {
		t.Errorf("exist = %v", exist)
	}
	if len(possible) != 1 || possible[0] != b {
		t.Errorf("possible = %v", possible)
	}
}

func TestLocationString(t *testing.T) {
	if Cache.String() != "cache" || Backend.String() != "backend" {
		t.Error("Location strings wrong")
	}
}

func TestPlanString(t *testing.T) {
	p := mk(10, 100)
	p.UsesIndex = true
	p.Index = "idx_t(a)"
	p.Nodes = 3
	p.Missing = []*structure.Structure{structure.CPUNode(3)}
	s := p.String()
	for _, want := range []string{"idx_t(a)", "nodes=3", "missing=1"} {
		if !contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: the skyline is mutually non-dominating and every dropped plan
// is dominated by some survivor.
func TestSkylineProperty(t *testing.T) {
	f := func(times, prices []uint16) bool {
		n := len(times)
		if len(prices) < n {
			n = len(prices)
		}
		if n == 0 {
			return true
		}
		plans := make([]*Plan, n)
		for i := 0; i < n; i++ {
			plans[i] = mk(int64(times[i]), int64(prices[i]))
		}
		sky := Skyline(plans)
		if len(sky) == 0 {
			return false
		}
		dominates := func(a, b *Plan) bool {
			return a.Outcome.Time <= b.Outcome.Time && a.Price() <= b.Price() &&
				(a.Outcome.Time < b.Outcome.Time || a.Price() < b.Price())
		}
		// Survivors are mutually non-dominating.
		for i, a := range sky {
			for j, b := range sky {
				if i != j && dominates(a, b) {
					return false
				}
			}
		}
		// Every input is dominated-or-equal by a survivor.
		for _, p := range plans {
			ok := false
			for _, s := range sky {
				if s == p || dominates(s, p) ||
					(s.Outcome.Time == p.Outcome.Time && s.Price() == p.Price()) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
