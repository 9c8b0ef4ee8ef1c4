package sim

import (
	"sort"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/scheme"
	"repro/internal/structure"
	"repro/internal/workload"
)

// tenantGen builds a generator whose stream is spread over tenants with
// Zipf skew. The tenant draws come from a dedicated RNG, so for a fixed
// seed the underlying query stream (templates, selectivities, arrivals,
// budgets) is identical for every tenant configuration.
func tenantGen(t *testing.T, cat *catalog.Catalog, tenants int, theta float64, seed int64) *workload.Generator {
	t.Helper()
	g, err := workload.NewGenerator(workload.Config{
		Catalog:     cat,
		Seed:        seed,
		Arrival:     workload.NewFixedArrival(time.Second),
		Budgets:     &workload.FixedPolicy{Shape: workload.ShapeStep, Price: money.FromDollars(0.002), TMax: time.Hour},
		Tenants:     tenants,
		TenantTheta: theta,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func providerScheme(t *testing.T, cat *catalog.Catalog, p economy.Provider) scheme.Scheme {
	t.Helper()
	params := scheme.DefaultParams(cat)
	params.RegretFraction = 0.0001
	params.Provider = p
	s, err := scheme.NewEconCheap(params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTenantTagsDoNotPerturbStream: tagging a stream with tenants must not
// change a single template, selectivity or arrival of the stream itself —
// the property the altruistic parity below rests on.
func TestTenantTagsDoNotPerturbStream(t *testing.T) {
	cat := catalog.TPCH(20)
	plain := tenantGen(t, cat, 0, 0, 7)
	tagged := tenantGen(t, cat, 5, 1.1, 7)
	for i := 0; i < 2000; i++ {
		a, b := plain.Next(), tagged.Next()
		if a.Template.Name != b.Template.Name || a.Selectivity != b.Selectivity ||
			a.Arrival != b.Arrival || a.ID != b.ID {
			t.Fatalf("query %d diverged: %v vs %v", i, a, b)
		}
		if a.Tenant != "" || b.Tenant == "" {
			t.Fatalf("query %d: tags wrong: %q vs %q", i, a.Tenant, b.Tenant)
		}
	}
}

// TestAltruisticSimParity is the acceptance test of the ledger refactor:
// Provider=altruistic over a tenant-tagged stream must reproduce the
// classic single-account results byte for byte — same operating cost,
// same investments, same response distribution, same residency — because
// the pooled account is tenant-blind. The single-tenant degenerate case
// (Tenants=0) IS today's behavior.
func TestAltruisticSimParity(t *testing.T) {
	cat := catalog.TPCH(20)
	run := func(tenants int) *Report {
		rep, err := Run(Config{
			Scheme:  providerScheme(t, cat, economy.ProviderAltruistic),
			Source:  tenantGen(t, cat, tenants, 1.1, 7),
			Queries: 3000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain, tagged := run(0), run(4)

	if plain.Tenants != nil {
		t.Error("untagged run grew tenant sections")
	}
	if len(tagged.Tenants) == 0 {
		t.Error("tagged run has no tenant sections")
	}
	// Strip the (intentionally different) tenant sections, then demand
	// byte-for-byte equality of everything else.
	taggedCopy := *tagged
	taggedCopy.Tenants = nil
	plainCopy := *plain
	if plainCopy.OperatingCost != taggedCopy.OperatingCost ||
		plainCopy.ExecCost != taggedCopy.ExecCost ||
		plainCopy.BuildCost != taggedCopy.BuildCost ||
		plainCopy.StorageCost != taggedCopy.StorageCost ||
		plainCopy.NodeCost != taggedCopy.NodeCost ||
		plainCopy.Revenue != taggedCopy.Revenue ||
		plainCopy.Profit != taggedCopy.Profit ||
		plainCopy.Investments != taggedCopy.Investments ||
		plainCopy.Failures != taggedCopy.Failures ||
		plainCopy.Declined != taggedCopy.Declined ||
		plainCopy.CacheAnswered != taggedCopy.CacheAnswered ||
		plainCopy.FinalResidentBytes != taggedCopy.FinalResidentBytes ||
		plainCopy.EndOfRun != taggedCopy.EndOfRun {
		t.Errorf("altruistic accounting diverged under tenant tags:\nplain  %+v\ntagged %+v",
			plainCopy, taggedCopy)
	}
	if plain.Response.Mean() != tagged.Response.Mean() {
		t.Errorf("response distribution diverged: %g vs %g",
			plain.Response.Mean(), tagged.Response.Mean())
	}

	// Tenant sections are attribution only: they must sum back to the
	// aggregate exactly.
	var q, decl, hits int64
	var rev money.Amount
	for _, tr := range tagged.Tenants {
		q += tr.Queries
		decl += tr.Declined
		hits += tr.CacheAnswered
		rev = rev.Add(tr.Revenue)
	}
	if q != int64(tagged.Queries) || decl != tagged.Declined ||
		hits != tagged.CacheAnswered || rev != tagged.Revenue {
		t.Errorf("tenant sections do not sum to the aggregate: q=%d/%d decl=%d/%d hits=%d/%d rev=%v/%v",
			q, tagged.Queries, decl, tagged.Declined, hits, tagged.CacheAnswered, rev, tagged.Revenue)
	}
}

// residentIDs snapshots the sorted resident + pending structure IDs of a
// scheme's cache.
func residentIDs(s scheme.Scheme) []structure.ID {
	var ids []structure.ID
	for _, e := range s.Cache().Entries() {
		ids = append(ids, e.S.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestSelfishChangesInvestment is the regression half of the acceptance
// criteria: under a two-tenant skewed workload the selfish provider —
// whose per-tenant capital and regret gates the Eq. 3 test tenant by
// tenant — must build differently from the altruistic pool fed the very
// same stream.
func TestSelfishChangesInvestment(t *testing.T) {
	cat := catalog.TPCH(20)
	run := func(p economy.Provider) (*Report, scheme.Scheme) {
		sch := providerScheme(t, cat, p)
		rep, err := Run(Config{
			Scheme:  sch,
			Source:  tenantGen(t, cat, 2, 1.1, 7),
			Queries: 3000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, sch
	}
	altRep, altSch := run(economy.ProviderAltruistic)
	selRep, selSch := run(economy.ProviderSelfish)

	alt, sel := residentIDs(altSch), residentIDs(selSch)
	sameResidency := len(alt) == len(sel)
	if sameResidency {
		for i := range alt {
			if alt[i] != sel[i] {
				sameResidency = false
				break
			}
		}
	}
	if sameResidency && altRep.Investments == selRep.Investments {
		t.Errorf("selfish provider built exactly what the altruistic one did "+
			"(investments %d, residency %v) — the policy knob is inert",
			altRep.Investments, alt)
	}

	// The selfish run's ledgers must show per-tenant accounts in play:
	// the hot tenant financed structures out of its own (seeded) credit.
	var financed int64
	for _, tr := range selRep.Tenants {
		financed += tr.StructuresCharged
		if tr.Queries > 0 && tr.Credit.IsZero() && tr.Spend.IsZero() {
			t.Errorf("tenant %q has an empty ledger: %+v", tr.Tenant, tr)
		}
	}
	if financed == 0 {
		t.Error("no tenant financed any structure in the selfish run")
	}
}
