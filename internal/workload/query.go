package workload

import (
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
)

// Query is one concrete request in the stream: a template instantiated with
// a region fraction, an arrival time on the simulation clock and the user's
// budget function.
type Query struct {
	// ID is the 1-based sequence number in the stream.
	ID int64
	// Tenant names the user community the query belongs to. Empty means
	// untagged (the single-tenant streams of the paper's figures); the
	// economy keeps a ledger per distinct tenant name.
	Tenant string
	// Template the query instantiates.
	Template *Template
	// Selectivity is the region fraction actually scanned by this
	// execution, drawn from [Template.SelMin, Template.SelMax].
	Selectivity float64
	// Arrival is the simulation time the query reaches the coordinator.
	Arrival time.Duration
	// Budget is the user's B_Q(t) as declared to the provider.
	Budget budget.Func
	// Truth, when non-nil, is the truthful budget behind a
	// strategically declared Budget. Only adversary streams set it; the
	// economy never reads it — it exists so audits can ask "what would
	// honesty have cost?" via the counterfactual quote.
	Truth budget.Func
}

// Sizes is one query's byte counts: what a full (index-less) cache
// execution scans, what remains to scan through a useful index, and the
// result set S(Q) shipped to the user (and, for back-end plans, across
// the WAN to the cache; Eq. 9). Everything that prices a query prices
// these three numbers, so a caller pricing many plans sizes once.
type Sizes struct {
	Scan, IndexScan, Result int64
}

// Sizes sizes the query against a catalog.
func (q *Query) Sizes(c *catalog.Catalog) (Sizes, error) {
	group, err := q.Template.GroupBytes(c)
	if err != nil {
		return Sizes{}, err
	}
	scan := atLeastOne(float64(group) * q.Selectivity)
	return Sizes{
		Scan:      scan,
		IndexScan: atLeastOne(float64(scan) * q.Template.IndexSelectivity),
		Result:    atLeastOne(float64(scan) * q.Template.ResultFraction),
	}, nil
}

// atLeastOne truncates a byte count, flooring it at one byte.
func atLeastOne(bytes float64) int64 {
	return max(int64(bytes), 1)
}

// ScanBytes returns the bytes a full (index-less) cache execution scans:
// the region fraction of the template's column group.
func (q *Query) ScanBytes(c *catalog.Catalog) (int64, error) {
	sz, err := q.Sizes(c)
	return sz.Scan, err
}

// IndexScanBytes returns the bytes scanned when a useful index exists.
func (q *Query) IndexScanBytes(c *catalog.Catalog) (int64, error) {
	sz, err := q.Sizes(c)
	return sz.IndexScan, err
}

// ResultBytes returns the size S(Q) of the result set.
func (q *Query) ResultBytes(c *catalog.Catalog) (int64, error) {
	sz, err := q.Sizes(c)
	return sz.Result, err
}

// String renders a short description for traces.
func (q *Query) String() string {
	return fmt.Sprintf("q%d[%s sel=%.2e t=%s]", q.ID, q.Template.Name, q.Selectivity, q.Arrival)
}
