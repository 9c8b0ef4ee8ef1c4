package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The claims table holds the code to the paper's claims. Each row states a
// claim, where the paper makes it, the stream size it holds at and how to
// measure it, and it must hold in the worst of claimSeeds: one lucky
// stream is not a reproduction. TestClaims runs the rows that hold from
// 20 k queries; the Fig. 4/5 orderings need the paper's million queries
// and run in TestPaperClaims (make paper).

// claimSeeds are the seeds every claim is measured in.
var claimSeeds = []int64{1, 2, 3, 42}

// paperQueries is the paper's million-query evolution. Below it the build
// transient dominates the grid.
const paperQueries = 1_000_000

type claim struct {
	text, source string
	queries      int
	// margin measures the claim on one seed's evidence and names the
	// point it was read at (an interval, a sweep step). The claim holds in
	// that seed when the margin is negative, or zero unless strict.
	margin func(ev *evidence) (float64, string, error)
	strict bool
	// knownGap marks a claim the code does not meet yet, with the margin
	// last measured. Its verdict fails the day the claim starts to hold,
	// so the mark cannot outlive the gap.
	knownGap string
}

var claims = []claim{
	{
		text: "econ-cheap costs less than bypass at every interval", source: "§VII-B, Fig. 4",
		queries: paperQueries, strict: true, margin: gridRatio("econ-cheap", "bypass", Cell.costDollars, 0),
	},
	{
		text: "econ-fast costs less than bypass at every interval", source: "§VII-B, Fig. 4",
		queries: paperQueries, strict: true, margin: gridRatio("econ-fast", "bypass", Cell.costDollars, 0),
	},
	{
		text: "econ-cheap answers faster than bypass at every interval", source: "§VII-B, Fig. 5",
		queries: paperQueries, strict: true, margin: gridRatio("econ-cheap", "bypass", Cell.MeanResponseSeconds, 0),
	},
	{
		text: "econ-fast answers faster than bypass at every interval", source: "§VII-B, Fig. 5",
		queries: paperQueries, strict: true, margin: gridRatio("econ-fast", "bypass", Cell.MeanResponseSeconds, 0),
	},
	{
		text: "econ-fast answers no slower than econ-cheap at any interval", source: "§VII-A, Fig. 5",
		queries: paperQueries, margin: gridRatio("econ-fast", "econ-cheap", Cell.MeanResponseSeconds, 0),
		knownGap: "slower at 30 s in every seed (0.65 s against 0.51–0.62 s) and at 60 s in seeds " +
			"2 and 3 (1.63 s against 1.03 s; 2.40 s against 1.04 s)",
	},
	{
		text: "the full economy answers faster than the column-only economy at every interval", source: "§VII-B, Fig. 5",
		queries: paperQueries, strict: true, margin: gridRatio("econ-cheap", "econ-col", Cell.MeanResponseSeconds, 0),
	},
	{
		text: "the full economy costs less than the column-only economy at every interval", source: "§VII-B, Fig. 4",
		queries: paperQueries, strict: true, margin: gridRatio("econ-cheap", "econ-col", Cell.costDollars, 0),
		knownGap: "econ-col costs less at 30 s and 60 s in every seed (worst: seed 42 at 60 s, " +
			"$6 770 against $5 284, +28.1 %)",
	},
	{
		text: "econ-cheap's cost gap to bypass is widest at the shortest interval", source: "§VII-B, Fig. 4",
		queries: paperQueries, strict: true, margin: widestGapFirst,
	},
	{
		text: "every scheme's operating cost rises with the inter-query interval", source: "§VII-B, Fig. 4",
		queries: paperQueries, strict: true,
		margin: func(ev *evidence) (float64, string, error) {
			cells, err := ev.cells("grid", RunGrid)
			if err != nil {
				return 0, "", err
			}
			worst, at := math.Inf(-1), ""
			for _, name := range SchemeNames {
				run := slices.DeleteFunc(slices.Clone(cells), func(c Cell) bool { return c.Scheme != name })
				// Rising cost is falling negated cost.
				m, step, _ := worstStep(run, func(c Cell) float64 { return -c.costDollars() },
					func(i int) string { return name + " at " + run[i].Interval.String() })
				if m > worst {
					worst, at = m, step
				}
			}
			return worst, at, nil
		},
	},
	{
		text: "econ-cheap costs at least 5 % less than bypass at 60 s", source: "§VII-B, Fig. 4",
		queries: paperQueries,
		margin: func(ev *evidence) (float64, string, error) {
			m, at, err := gridRatio("econ-cheap", "bypass", Cell.costDollars, time.Minute)(ev)
			return m + 0.05, at, err
		},
		knownGap: "the worst seed (1) reads −4.2 %; ROADMAP item 1 step 2 targets the rule",
	},
	{
		text: "a larger regret fraction a never invests more", source: "Eq. 3", queries: 20_000,
		margin: func(ev *evidence) (float64, string, error) {
			fractions := []float64{0.001, 0.005, 0.02, 0.1, 0.5}
			cells, err := ev.cells("ablation-a", func(s Settings) ([]Cell, error) {
				_, c, err := AblationRegretFraction(s, fractions, time.Second)
				return c, err
			})
			if err != nil {
				return 0, "", err
			}
			return worstStep(cells, func(c Cell) float64 { return float64(c.Report.Investments) },
				func(i int) string { return fmt.Sprintf("a=%g", fractions[i]) })
		},
	},
	{
		text: "a longer amortization horizon n never raises the price per query", source: "Eq. 7", queries: 20_000,
		margin: func(ev *evidence) (float64, string, error) {
			horizons := []int64{1_000, 10_000, 100_000, 1_000_000}
			cells, err := ev.cells("ablation-amort", func(s Settings) ([]Cell, error) {
				_, c, err := AblationAmortization(s, horizons, time.Second)
				return c, err
			})
			if err != nil {
				return 0, "", err
			}
			return worstStep(cells, func(c Cell) float64 {
				r := c.Report
				return r.Revenue.Sub(r.Profit).Dollars() / float64(int64(r.Queries)-r.Declined)
			}, func(i int) string { return fmt.Sprintf("n=%d", horizons[i]) })
		},
	},
	{
		text: "a step budget pays no less than the linear, convex or concave budget under it", source: "§IV-A, Fig. 1",
		queries: 20_000,
		margin: func(ev *evidence) (float64, string, error) {
			cells, err := ev.cells("ablation-budget", func(s Settings) ([]Cell, error) {
				_, c, err := AblationBudgetShape(s, time.Second)
				return c, err
			})
			if err != nil {
				return 0, "", err
			}
			// The ablation's rows: step, then linear, convex and concave.
			shapes := []string{"step", "linear", "convex", "concave"}
			worst, at := math.Inf(-1), ""
			for i, c := range cells[1:] {
				if m := c.Report.Revenue.Dollars()/cells[0].Report.Revenue.Dollars() - 1; m > worst {
					worst, at = m, shapes[i+1]
				}
			}
			return worst, at, nil
		},
	},
	{
		text: "a faster WAN never slows econ-cheap's answers", source: "§VI", queries: 20_000,
		margin: func(ev *evidence) (float64, string, error) {
			mbps := []float64{5, 25, 100, 200}
			cells, err := ev.cells("ablation-net", func(s Settings) ([]Cell, error) {
				_, c, err := AblationNetworkThroughput(s, mbps, time.Second)
				return c, err
			})
			if err != nil {
				return 0, "", err
			}
			return worstStep(cells, Cell.MeanResponseSeconds, func(i int) string { return fmt.Sprintf("%g Mbps", mbps[i]) })
		},
	},
	{
		text: "bypass answers at least 10 queries in the back end before its first load", source: "§VII-B",
		queries: 20_000,
		margin: func(ev *evidence) (float64, string, error) {
			n, err := ev.backendBeforeFirstLoad()
			return float64(10-n) / 10, fmt.Sprintf("%d queries", n), err
		},
		knownGap: "seeds 42, 3, 1 and 2 read 0, 1, 4 and 10: at the 0.10 load factor one " +
			"query's result often pays a column's break-even",
	},
}

// evidence is what the claims read for one seed at one stream size. Each
// grid, ablation or probe runs once, however many claims read it.
type evidence struct {
	s         Settings
	runs      map[string][]Cell
	firstLoad *int // backendBeforeFirstLoad's count, once measured
}

func (ev *evidence) cells(name string, run func(Settings) ([]Cell, error)) ([]Cell, error) {
	if c, ok := ev.runs[name]; ok {
		return c, nil
	}
	c, err := run(ev.s)
	if err == nil {
		ev.runs[name] = c
	}
	return c, err
}

// backendBeforeFirstLoad runs bypass at 1 s and counts the queries it
// answers in the back end before it starts its first column load.
func (ev *evidence) backendBeforeFirstLoad() (int, error) {
	if ev.firstLoad == nil {
		cfg, err := ev.s.withDefaults().cellConfig("bypass", time.Second)
		if err != nil {
			return 0, err
		}
		fl := &firstLoad{Scheme: cfg.Scheme}
		cfg.Scheme = fl
		if _, err := sim.Run(cfg); err != nil {
			return 0, err
		}
		ev.firstLoad = &fl.backend
	}
	return *ev.firstLoad, nil
}

// firstLoad counts back-end answers until the scheme's first build.
type firstLoad struct {
	scheme.Scheme
	backend int
	loaded  bool
}

func (f *firstLoad) HandleQuery(q *workload.Query) (scheme.Result, error) {
	r, err := f.Scheme.HandleQuery(q)
	if !f.loaded {
		f.loaded = r.Investments > 0
		if !f.loaded && r.Location == plan.Backend {
			f.backend++
		}
	}
	return r, err
}

// costDollars is the Fig. 4 value in dollars.
func (c Cell) costDollars() float64 { return c.Cost().Dollars() }

// gridRatio measures "num < den at every interval" (or only at one, when
// only is not 0) as the largest num/den − 1 on the grid.
func gridRatio(num, den string, value func(Cell) float64, only time.Duration) func(*evidence) (float64, string, error) {
	return func(ev *evidence) (float64, string, error) {
		cells, err := ev.cells("grid", RunGrid)
		if err != nil {
			return 0, "", err
		}
		worst, at := math.Inf(-1), ""
		for _, iv := range PaperIntervals {
			if only != 0 && iv != only {
				continue
			}
			n, d, err := pair(cells, num, den, iv)
			if err != nil {
				return 0, "", err
			}
			if m := value(n)/value(d) - 1; m > worst {
				worst, at = m, iv.String()
			}
		}
		return worst, at, nil
	}
}

// widestGapFirst measures "econ-cheap's relative cost saving over bypass
// is largest at the shortest interval": the widest saving at a longer
// interval minus the saving at the shortest.
func widestGapFirst(ev *evidence) (float64, string, error) {
	cells, err := ev.cells("grid", RunGrid)
	if err != nil {
		return 0, "", err
	}
	saving := func(iv time.Duration) (float64, error) {
		e, b, err := pair(cells, "econ-cheap", "bypass", iv)
		if err != nil {
			return 0, err
		}
		return 1 - e.costDollars()/b.costDollars(), nil
	}
	first, err := saving(PaperIntervals[0])
	if err != nil {
		return 0, "", err
	}
	worst, at := math.Inf(-1), ""
	for _, iv := range PaperIntervals[1:] {
		s, err := saving(iv)
		if err != nil {
			return 0, "", err
		}
		if s-first > worst {
			worst, at = s-first, iv.String()
		}
	}
	return worst, at, nil
}

// pair finds two schemes' cells at one interval.
func pair(cells []Cell, a, b string, iv time.Duration) (Cell, Cell, error) {
	found := map[string]Cell{}
	for _, c := range cells {
		if c.Interval == iv && (c.Scheme == a || c.Scheme == b) {
			found[c.Scheme] = c
		}
	}
	if len(found) != 2 {
		return Cell{}, Cell{}, fmt.Errorf("grid lacks %s or %s at %v", a, b, iv)
	}
	return found[a], found[b], nil
}

// worstStep measures "value never rises along the sweep" as the largest
// rise between neighbouring cells, relative to the earlier one (absolute
// when that is zero).
func worstStep(cells []Cell, value func(Cell) float64, label func(int) string) (float64, string, error) {
	worst, at := math.Inf(-1), ""
	for i := 1; i < len(cells); i++ {
		prev, m := value(cells[i-1]), value(cells[i])-value(cells[i-1])
		if prev != 0 {
			m /= math.Abs(prev)
		}
		if m > worst {
			worst, at = m, label(i)
		}
	}
	return worst, at, nil
}

// verdict is one claim's outcome: its margin and where it was read, per
// seed of claimSeeds.
type verdict struct {
	claim
	margins []float64
	at      []string
}

// holds reports whether the claim holds in every seed.
func (v verdict) holds() bool {
	for _, m := range v.margins {
		if m > 0 || (m == 0 && v.strict) {
			return false
		}
	}
	return true
}

// err is nil when the verdict is what the table expects: the claim holds,
// or it fails and is marked as a known gap. Otherwise it names the row,
// the worst seed and its margin.
func (v verdict) err() error {
	w := 0
	for i, m := range v.margins {
		if m > v.margins[w] {
			w = i
		}
	}
	where := fmt.Sprintf("worst seed %d, margin %+.1f %% at %s", claimSeeds[w], v.margins[w]*100, v.at[w])
	switch holds := v.holds(); {
	case !holds && v.knownGap == "":
		return fmt.Errorf("claim %q (%s, %d queries) fails: %s", v.text, v.source, v.queries, where)
	case holds && v.knownGap != "":
		return fmt.Errorf("claim %q (%s, %d queries) now holds in every seed (%s): drop its known-gap mark", v.text, v.source, v.queries, where)
	}
	return nil
}

// checkClaims measures every claim of one stream size in each of
// claimSeeds, one evidence per seed.
func checkClaims(t *testing.T, queries int) []verdict {
	var verdicts []verdict
	for _, c := range claims {
		if c.queries == queries {
			verdicts = append(verdicts, verdict{claim: c})
		}
	}
	for _, seed := range claimSeeds {
		ev := &evidence{s: Settings{Queries: queries, Seed: seed}, runs: map[string][]Cell{}}
		for i := range verdicts {
			m, at, err := verdicts[i].margin(ev)
			if err != nil {
				t.Fatalf("claim %q, seed %d: %v", verdicts[i].text, seed, err)
			}
			verdicts[i].margins = append(verdicts[i].margins, m)
			verdicts[i].at = append(verdicts[i].at, at)
		}
	}
	return verdicts
}

// report logs the verdicts as a table — each claim's median margin and
// its range over claimSeeds — then fails the test on every unexpected one.
func report(t *testing.T, verdicts []verdict) {
	tb := NewTable("claim", "source", "queries", "median margin", "range", "verdict")
	for _, v := range verdicts {
		ms := slices.Sorted(slices.Values(v.margins))
		med := (ms[(len(ms)-1)/2] + ms[len(ms)/2]) / 2
		state := "holds"
		switch {
		case v.knownGap != "" && v.holds():
			state = "GAP CLOSED"
		case v.knownGap != "":
			state = "known gap"
		case !v.holds():
			state = "FAILS"
		}
		tb.AddRow(v.text, v.source, fmt.Sprint(v.queries), fmt.Sprintf("%+.1f %%", med*100),
			fmt.Sprintf("%+.1f … %+.1f %%", ms[0]*100, ms[len(ms)-1]*100), state)
	}
	t.Logf("claims in the worst of seeds %v (margin < 0 holds):\n%s", claimSeeds, tb)
	for _, v := range verdicts {
		if v.knownGap != "" {
			t.Logf("known gap: %s — %s", v.text, v.knownGap)
		}
		if err := v.err(); err != nil {
			t.Error(err)
		}
	}
}

// TestClaims holds the code to every claim that holds from 20 k queries.
func TestClaims(t *testing.T) {
	verdicts := checkClaims(t, 20_000)
	if len(verdicts) < 5 {
		t.Fatalf("%d claims measured at 20 k queries, want at least 5", len(verdicts))
	}
	report(t, verdicts)
}

// TestPaperClaimsMeasure runs every million-query row's measurement on a
// short stream. Their verdicts mean nothing there; this only keeps a
// renamed scheme or a missing interval from surfacing first in make paper.
func TestPaperClaimsMeasure(t *testing.T) {
	ev := &evidence{s: Settings{Queries: 500, Seed: 1}, runs: map[string][]Cell{}}
	sizes := map[int]int{}
	for _, c := range claims {
		sizes[c.queries]++
		if c.queries != paperQueries {
			continue
		}
		if _, at, err := c.margin(ev); err != nil || at == "" {
			t.Errorf("%s: at %q, err %v", c.text, at, err)
		}
	}
	if want := []int{20_000, paperQueries}; !slices.Equal(slices.Sorted(maps.Keys(sizes)), want) || sizes[paperQueries] < 8 {
		t.Errorf("claims per stream size %v; want only sizes %v and the Fig. 4/5 orderings at 1 M", sizes, want)
	}
}

// TestVerdictErr pins the table's four outcomes: a held claim and a
// failing known gap pass; a failing claim and a closed gap fail, naming
// the row, the worst seed and its margin.
func TestVerdictErr(t *testing.T) {
	held := []float64{-0.2, -0.1, -0.3, -0.05}
	failing := []float64{-0.2, 0.04, -0.3, -0.05}
	for _, tc := range []struct {
		margins []float64
		gap     string
		strict  bool
		want    string
	}{
		{margins: held},
		{margins: failing, gap: "measured +4 %"},
		{margins: []float64{0, -1, -1, -1}},
		{margins: []float64{0, -1, -1, -1}, strict: true, want: "fails: worst seed 1, margin +0.0 % at 1s"},
		{margins: failing, want: "fails: worst seed 2, margin +4.0 % at 30s"},
		{margins: held, gap: "measured +4 %", want: "now holds in every seed (worst seed 42, margin -5.0 % at 10s)"},
	} {
		v := verdict{claim: claim{text: "x beats y", source: "Fig. 4", queries: 7, strict: tc.strict, knownGap: tc.gap},
			margins: tc.margins, at: []string{"1s", "30s", "60s", "10s"}}
		err := v.err()
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%v gap %q: got %v, want %q", tc.margins, tc.gap, err, tc.want)
		}
	}
}
