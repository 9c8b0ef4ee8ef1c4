// Package workload generates the query stream that drives the cloud cache:
// seven TPC-H-derived query templates (§VII-A, [13]), Zipfian template
// popularity with phase-based evolution (emulating "the query evolution of a
// million SDSS-like queries"), configurable arrival processes and budget
// policies. Generation is fully deterministic for a given seed.
package workload

import (
	"fmt"

	"repro/internal/catalog"
)

// Template is a parameterised query shape. A concrete Query instantiates a
// template with a region fraction (how much of the referenced column group
// a single execution scans) drawn from [SelMin, SelMax].
type Template struct {
	// ID is a small stable integer (1-based) used in reports.
	ID int
	// Name labels the template after its TPC-H ancestor, e.g. "Q6".
	Name string
	// Columns are all columns the query reads; the cache must hold all of
	// them for the query to run in the cache (§V-B: plans run completely
	// in the cache or completely in the back-end).
	Columns []catalog.ColumnRef
	// SelMin/SelMax bound the region fraction: the share of the column
	// group one execution scans (data-access locality, §VI).
	SelMin, SelMax float64
	// IndexSelectivity is the fraction of the scan that remains when a
	// useful index exists (predicate pushdown through the index).
	IndexSelectivity float64
	// ResultFraction is result bytes as a share of scanned bytes
	// ("result heavy" workloads, §VI).
	ResultFraction float64
	// Parallelizable reports whether extra CPU nodes can speed the query
	// up (§VI requires it; some aggregates parallelise better than
	// others).
	Parallelizable bool
	// IndexCandidates are the index definitions that would benefit this
	// template; the optimizer prices a plan over each of them.
	IndexCandidates []catalog.IndexDef

	// groupBytes memoizes the column-group size for the catalog the
	// template was last validated against; sizing is on every query's
	// hot path.
	groupBytes int64
}

// Validate checks a template against a catalog.
func (t *Template) Validate(c *catalog.Catalog) error {
	if t.Name == "" {
		return fmt.Errorf("workload: template %d has no name", t.ID)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("workload: template %s reads no columns", t.Name)
	}
	for _, ref := range t.Columns {
		if _, err := c.Resolve(ref); err != nil {
			return fmt.Errorf("workload: template %s: %w", t.Name, err)
		}
	}
	if !(t.SelMin > 0) || t.SelMax < t.SelMin || t.SelMax > 1 {
		return fmt.Errorf("workload: template %s has bad selectivity range [%g,%g]", t.Name, t.SelMin, t.SelMax)
	}
	if t.IndexSelectivity <= 0 || t.IndexSelectivity > 1 {
		return fmt.Errorf("workload: template %s has bad index selectivity %g", t.Name, t.IndexSelectivity)
	}
	if t.ResultFraction <= 0 || t.ResultFraction > 1 {
		return fmt.Errorf("workload: template %s has bad result fraction %g", t.Name, t.ResultFraction)
	}
	for _, def := range t.IndexCandidates {
		if err := def.Validate(c); err != nil {
			return fmt.Errorf("workload: template %s: %w", t.Name, err)
		}
	}
	group, err := c.GroupBytes(t.Columns)
	if err != nil {
		return err
	}
	t.groupBytes = group
	return nil
}

// GroupBytes returns the total size of the template's column group,
// memoized by Validate (sizing is on every query's hot path).
func (t *Template) GroupBytes(c *catalog.Catalog) (int64, error) {
	if t.groupBytes > 0 {
		return t.groupBytes, nil
	}
	group, err := c.GroupBytes(t.Columns)
	if err != nil {
		return 0, err
	}
	t.groupBytes = group
	return group, nil
}

func li(col string) catalog.ColumnRef   { return catalog.Col("lineitem", col) }
func ord(col string) catalog.ColumnRef  { return catalog.Col("orders", col) }
func cust(col string) catalog.ColumnRef { return catalog.Col("customer", col) }

// PaperTemplates returns the seven TPC-H query templates of §VII-A. The
// column sets follow the TPC-H definitions of Q1, Q3, Q5, Q6, Q10, Q14 and
// Q18; selectivity and result-size parameters are calibrated so cache-side
// execution times land in the 1–10 s band of Figure 5.
func PaperTemplates() []*Template {
	idx := func(table string, cols ...string) catalog.IndexDef {
		return catalog.IndexDef{Table: table, Columns: cols}
	}
	return []*Template{
		{
			ID:   1,
			Name: "Q1",
			Columns: []catalog.ColumnRef{
				li("l_returnflag"), li("l_linestatus"), li("l_quantity"),
				li("l_extendedprice"), li("l_discount"), li("l_tax"), li("l_shipdate"),
			},
			SelMin: 1.6e-3, SelMax: 7.2e-3,
			IndexSelectivity: 0.30,
			ResultFraction:   0.005,
			Parallelizable:   true,
			IndexCandidates: []catalog.IndexDef{
				idx("lineitem", "l_shipdate"),
				idx("lineitem", "l_shipdate", "l_returnflag"),
				idx("lineitem", "l_shipdate", "l_returnflag", "l_linestatus"),
				idx("lineitem", "l_returnflag", "l_linestatus"),
			},
		},
		{
			ID:   2,
			Name: "Q3",
			Columns: []catalog.ColumnRef{
				cust("c_mktsegment"), cust("c_custkey"),
				ord("o_orderkey"), ord("o_custkey"), ord("o_orderdate"), ord("o_shippriority"),
				li("l_orderkey"), li("l_extendedprice"), li("l_discount"), li("l_shipdate"),
			},
			SelMin: 1.2e-3, SelMax: 5.6e-3,
			IndexSelectivity: 0.22,
			ResultFraction:   0.006,
			Parallelizable:   true,
			IndexCandidates: []catalog.IndexDef{
				idx("lineitem", "l_orderkey"),
				idx("lineitem", "l_orderkey", "l_shipdate"),
				idx("orders", "o_orderdate"),
				idx("orders", "o_orderdate", "o_custkey"),
				idx("orders", "o_custkey"),
				idx("customer", "c_mktsegment"),
			},
		},
		{
			ID:   3,
			Name: "Q5",
			Columns: []catalog.ColumnRef{
				cust("c_custkey"), cust("c_nationkey"),
				ord("o_orderkey"), ord("o_custkey"), ord("o_orderdate"),
				li("l_orderkey"), li("l_suppkey"), li("l_extendedprice"), li("l_discount"),
				catalog.Col("supplier", "s_suppkey"), catalog.Col("supplier", "s_nationkey"),
				catalog.Col("nation", "n_nationkey"), catalog.Col("nation", "n_regionkey"), catalog.Col("nation", "n_name"),
				catalog.Col("region", "r_regionkey"), catalog.Col("region", "r_name"),
			},
			SelMin: 8e-4, SelMax: 4.8e-3,
			IndexSelectivity: 0.25,
			ResultFraction:   0.004,
			Parallelizable:   true,
			IndexCandidates: []catalog.IndexDef{
				idx("lineitem", "l_orderkey", "l_suppkey"),
				idx("lineitem", "l_suppkey"),
				idx("orders", "o_orderdate"),
				idx("orders", "o_orderdate", "o_orderkey"),
				idx("customer", "c_nationkey"),
				idx("supplier", "s_nationkey"),
			},
		},
		{
			ID:   4,
			Name: "Q6",
			Columns: []catalog.ColumnRef{
				li("l_shipdate"), li("l_discount"), li("l_quantity"), li("l_extendedprice"),
			},
			SelMin: 2.4e-3, SelMax: 9.6e-3,
			IndexSelectivity: 0.12,
			ResultFraction:   0.0025,
			Parallelizable:   true,
			IndexCandidates: []catalog.IndexDef{
				idx("lineitem", "l_shipdate", "l_discount"),
				idx("lineitem", "l_shipdate", "l_discount", "l_quantity"),
				idx("lineitem", "l_discount"),
				idx("lineitem", "l_quantity"),
			},
		},
		{
			ID:   5,
			Name: "Q10",
			Columns: []catalog.ColumnRef{
				cust("c_custkey"), cust("c_name"), cust("c_acctbal"), cust("c_phone"),
				cust("c_address"), cust("c_comment"), cust("c_nationkey"),
				ord("o_orderkey"), ord("o_custkey"), ord("o_orderdate"),
				li("l_orderkey"), li("l_returnflag"), li("l_extendedprice"), li("l_discount"),
				catalog.Col("nation", "n_nationkey"), catalog.Col("nation", "n_name"),
			},
			SelMin: 9.6e-4, SelMax: 4e-3,
			IndexSelectivity: 0.28,
			ResultFraction:   0.01,
			Parallelizable:   false,
			IndexCandidates: []catalog.IndexDef{
				idx("lineitem", "l_returnflag"),
				idx("orders", "o_orderdate", "o_custkey"),
				idx("customer", "c_custkey"),
				idx("customer", "c_custkey", "c_nationkey"),
			},
		},
		{
			ID:   6,
			Name: "Q14",
			Columns: []catalog.ColumnRef{
				li("l_partkey"), li("l_shipdate"), li("l_extendedprice"), li("l_discount"),
				catalog.Col("part", "p_partkey"), catalog.Col("part", "p_type"),
			},
			SelMin: 1.6e-3, SelMax: 6.4e-3,
			IndexSelectivity: 0.18,
			ResultFraction:   0.004,
			Parallelizable:   true,
			IndexCandidates: []catalog.IndexDef{
				idx("lineitem", "l_shipdate", "l_partkey"),
				idx("lineitem", "l_partkey"),
				idx("part", "p_partkey"),
				idx("part", "p_type"),
			},
		},
		{
			ID:   7,
			Name: "Q18",
			Columns: []catalog.ColumnRef{
				cust("c_name"), cust("c_custkey"),
				ord("o_orderkey"), ord("o_custkey"), ord("o_orderdate"), ord("o_totalprice"),
				li("l_orderkey"), li("l_quantity"),
			},
			SelMin: 8e-4, SelMax: 4e-3,
			IndexSelectivity: 0.20,
			ResultFraction:   0.0075,
			Parallelizable:   false,
			IndexCandidates: []catalog.IndexDef{
				idx("lineitem", "l_orderkey", "l_quantity"),
				idx("orders", "o_orderkey"),
				idx("orders", "o_totalprice"),
				idx("customer", "c_custkey", "c_name"),
			},
		},
	}
}
