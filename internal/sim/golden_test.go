package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// TestReportGoldenJSON pins the JSON serialization of sim.Report — field
// names, field set and the values of one deterministic reference run —
// against a checked-in golden file. An economy refactor that silently
// changes a reported field (renames it, drops it, or shifts its value)
// fails here instead of slipping through review; an intentional change
// re-blesses the golden with `go test ./internal/sim -run Golden -update`.
//
// The reference run is small but exercises the full report surface:
// investments, cache answers, tenant sections under both providers, and
// the end-of-run tail-rent window. Values are exact: the simulator is
// single-threaded and seeded, money is fixed-point, and the percentiles
// are read off histogram counts. (The handful of float64 fields
// assume one architecture's rounding; CI and the golden agree on
// linux/amd64.)
func TestReportGoldenJSON(t *testing.T) {
	cat := catalog.TPCH(20)
	for _, tc := range []struct {
		name     string
		provider economy.Provider
	}{
		{"report_econ_cheap_altruistic", economy.ProviderAltruistic},
		{"report_econ_cheap_selfish", economy.ProviderSelfish},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := scheme.DefaultParams(cat)
			params.RegretFraction = 0.0001
			params.Provider = tc.provider
			sch, err := scheme.NewEconCheap(params)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(workload.Config{
				Catalog:     cat,
				Seed:        11,
				Arrival:     workload.NewFixedArrival(time.Second),
				Budgets:     &workload.FixedPolicy{Shape: workload.ShapeStep, Price: money.FromDollars(0.002), TMax: time.Hour},
				Tenants:     3,
				TenantTheta: 1.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.Run(sim.Config{Scheme: sch, Source: gen, Queries: 1500})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Investments == 0 || rep.CacheAnswered == 0 || len(rep.Tenants) != 3 {
				t.Fatalf("reference run too dull to pin: %d investments, %d cache answers, %d tenants",
					rep.Investments, rep.CacheAnswered, len(rep.Tenants))
			}

			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			golden := filepath.Join("testdata", tc.name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sim.Report JSON diverged from %s.\nIf the change is intentional, re-bless with -update.\ngot:\n%s\nwant:\n%s",
					golden, got, want)
			}
		})
	}
}
