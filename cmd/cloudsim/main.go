// Command cloudsim runs one caching scheme against a synthetic scientific
// workload and prints the full accounting: operating cost by resource,
// response-time distribution, cache behaviour and the economy's account.
//
// Usage:
//
//	cloudsim [-scheme bypass|econ-col|econ-cheap|econ-fast] [-queries N]
//	         [-interval D] [-seed S] [-arrival fixed|poisson] [-dbsize bytes]
//	         [-provider altruistic|selfish] [-tenants N] [-tenant-skew Z]
//	         [-maint-failure-factor F (default 6)]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	schemeName := flag.String("scheme", "econ-cheap", "caching scheme: bypass, econ-col, econ-cheap, econ-fast")
	queries := flag.Int("queries", 100_000, "queries to simulate")
	interval := flag.Duration("interval", time.Second, "inter-query interval")
	seed := flag.Int64("seed", 1, "workload seed")
	arrival := flag.String("arrival", "fixed", "arrival process: fixed or poisson")
	dbBytes := flag.Int64("dbsize", catalog.PaperDatabaseBytes, "back-end database size in bytes")
	providerName := flag.String("provider", "altruistic", "economy accounting: altruistic (pooled account) or selfish (per-tenant ledgers)")
	tenants := flag.Int("tenants", 0, "synthetic tenants the stream is spread across (0 = untagged)")
	tenantSkew := flag.Float64("tenant-skew", 1.1, "Zipf skew of tenant popularity")
	maintFactor := flag.Float64("maint-failure-factor", 0, "rent-vs-value ratio that evicts a structure (footnote 3); 0 keeps the default of 6")
	flag.Parse()

	provider, err := economy.ParseProvider(*providerName)
	if err != nil {
		fail(err)
	}
	cat := catalog.TPCH(catalog.ScaleFactorForBytes(*dbBytes))
	params := scheme.DefaultParams(cat)
	params.Provider = provider
	if *maintFactor > 0 {
		params.MaintFailureFactor = *maintFactor
	}
	sch, err := experiments.NewScheme(*schemeName, params)
	if err != nil {
		fail(err)
	}

	var proc workload.ArrivalProcess
	switch *arrival {
	case "fixed":
		proc = workload.NewFixedArrival(*interval)
	case "poisson":
		proc = workload.NewPoissonArrival(*interval)
	default:
		fail(fmt.Errorf("unknown arrival process %q", *arrival))
	}

	gen, err := workload.NewGenerator(workload.Config{
		Catalog:     cat,
		Seed:        *seed,
		Arrival:     proc,
		Budgets:     experiments.PaperBudgetPolicy(),
		Tenants:     *tenants,
		TenantTheta: *tenantSkew,
	})
	if err != nil {
		fail(err)
	}

	start := time.Now()
	rep, err := sim.Run(sim.Config{
		Scheme:  sch,
		Source:  gen,
		Queries: *queries,
		OnProgress: func(done int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d queries", done, *queries)
		},
		ProgressEvery: 25_000,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr)

	wall := time.Since(start)
	fmt.Printf("scheme            %s\n", rep.SchemeName)
	fmt.Printf("queries           %d (declined %d)\n", rep.Queries, rep.Declined)
	fmt.Printf("simulated span    %s\n", rep.Elapsed.Round(time.Second))
	fmt.Printf("wall time         %s (%.0f queries/s)\n",
		wall.Round(time.Millisecond), float64(rep.Queries)/wall.Seconds())
	fmt.Println()
	fmt.Printf("operating cost    %s\n", rep.OperatingCost)
	fmt.Printf("  execution       %s\n", rep.ExecCost)
	fmt.Printf("  builds          %s\n", rep.BuildCost)
	fmt.Printf("  storage rent    %s\n", rep.StorageCost)
	fmt.Printf("  node uptime     %s\n", rep.NodeCost)
	fmt.Printf("revenue           %s (profit %s)\n", rep.Revenue, rep.Profit)
	fmt.Println()
	fmt.Printf("mean response     %.2fs\n", rep.Response.Mean())
	fmt.Printf("p50 / p95 / p99   %.2fs / %.2fs / %.2fs\n",
		rep.Response.Percentile(50), rep.Response.Percentile(95), rep.Response.Percentile(99))
	fmt.Printf("cache answered    %d (%.1f%%)\n", rep.CacheAnswered,
		100*float64(rep.CacheAnswered)/float64(rep.Queries))
	fmt.Printf("investments       %d (failures %d)\n", rep.Investments, rep.Failures)
	fmt.Printf("resident at end   %.1f GB\n", float64(rep.FinalResidentBytes)/(1<<30))

	if len(rep.Tenants) > 0 {
		fmt.Println()
		fmt.Printf("tenant economies  (%s provider)\n", provider)
		fmt.Printf("%-12s %8s %8s %6s %10s %10s %10s %6s\n",
			"tenant", "queries", "hits", "decl", "spend", "credit", "invested", "built")
		for _, tr := range rep.Tenants {
			fmt.Printf("%-12s %8d %8d %6d %10.4f %10.4f %10.4f %6d\n",
				tr.Tenant, tr.Queries, tr.CacheAnswered, tr.Declined,
				tr.Spend.Dollars(), tr.Credit.Dollars(), tr.Invested.Dollars(),
				tr.StructuresCharged)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cloudsim:", err)
	os.Exit(1)
}
