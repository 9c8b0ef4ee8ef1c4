// Package cost implements the paper's cost model (§IV-D, §V): execution
// cost of cache and back-end plans (Eq. 8–9), build and maintenance cost of
// the three structure kinds (Eq. 10–15), and the parallel-scaling law of
// [17] ("a query can be sped up 2x using only 25% extra CPU overhead using
// 3 CPU nodes in parallel").
//
// The model deliberately splits *physical resource usage* from *prices*:
// a scheme decides with its own price schedule (the bypass baseline prices
// only the network), while the simulator accounts every scheme's true
// expenditure with the real schedule. Usage is the shared physical truth.
package cost

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// Usage is the physical resource consumption of one action (query execution
// or structure build). Storage rent is not part of Usage: it accrues with
// wall-clock time and is accounted by the cache, not per action.
type Usage struct {
	// CPUSeconds is total CPU time across all nodes involved.
	CPUSeconds float64
	// IOOps is the number of physical I/O operations.
	IOOps int64
	// NetBytes is the number of bytes moved across the WAN.
	NetBytes int64
	// Boots counts CPU-node boot events.
	Boots int
}

// Add accumulates another usage record.
func (u *Usage) Add(v Usage) {
	u.CPUSeconds += v.CPUSeconds
	u.IOOps += v.IOOps
	u.NetBytes += v.NetBytes
	u.Boots += v.Boots
}

// Price converts a usage record into money under a schedule. Boot events are
// priced as BootTime of CPU (Eq. 10).
func Price(s *pricing.Schedule, u Usage) money.Amount {
	total := s.CPUCost(time.Duration(u.CPUSeconds*float64(time.Second)), 1)
	total = total.Add(s.IOCost(u.IOOps))
	total = total.Add(s.TransferCost(u.NetBytes))
	if u.Boots > 0 {
		total = total.Add(s.BootCost().MulInt(int64(u.Boots)))
	}
	return total
}

// Outcome is the result of costing one action: how long it takes and what
// it consumes.
type Outcome struct {
	Time  time.Duration
	Usage Usage
}

// Tunables are the calibration constants that connect bytes to optimizer
// cost units. They are exported so ablations can perturb them.
type Tunables struct {
	// BytesPerCostUnit converts scanned bytes to the optimizer's qtot
	// cost units of Eq. 8. With the paper's fcpu=0.014 and 8 MiB per
	// unit, a 4 GB scan costs 7 s of CPU — the Fig. 5 regime.
	BytesPerCostUnit float64
	// PageSize converts scanned bytes to I/O operations (iotot).
	PageSize int64
	// RowStoreFactor inflates back-end scans relative to the columnar
	// cache: the back-end row store reads whole rows where the cache
	// reads only the referenced columns.
	RowStoreFactor float64
	// SortFactor inflates the CPU of index construction relative to a
	// plain scan of the indexed columns (§V-C approximates index build
	// by an ORDER BY query).
	SortFactor float64
	// SpeedupPerExtraNode is the marginal speedup slope: time(k) =
	// t1/(1+slope·(k-1)). The paper's law (2× at 3 nodes) gives 0.5.
	SpeedupPerExtraNode float64
	// OverheadPerExtraNode is the marginal CPU overhead slope:
	// cpu(k) = cpu1·(1+slope·(k-1)). The paper's 25 % at 3 nodes
	// gives 0.125.
	OverheadPerExtraNode float64
	// MaxNodes caps the parallelism the optimizer considers.
	MaxNodes int
	// IndexProbeCPUSeconds is the fixed CPU cost of descending an index.
	IndexProbeCPUSeconds float64
}

// DefaultTunables returns the calibration used for the paper-figure
// experiments.
func DefaultTunables() Tunables {
	return Tunables{
		BytesPerCostUnit:     8 << 20,  // 8 MiB per cost unit
		PageSize:             64 << 10, // 64 KiB extents: the unit EBS billed an I/O at
		RowStoreFactor:       3.0,
		SortFactor:           3.0,
		SpeedupPerExtraNode:  0.5,
		OverheadPerExtraNode: 0.125,
		MaxNodes:             3,
		IndexProbeCPUSeconds: 0.002,
	}
}

// Validate checks the tunables.
func (t Tunables) Validate() error {
	if t.BytesPerCostUnit <= 0 || t.PageSize <= 0 {
		return fmt.Errorf("cost: byte/page units must be positive")
	}
	if t.RowStoreFactor < 1 || t.SortFactor < 1 {
		return fmt.Errorf("cost: row-store and sort factors must be >= 1")
	}
	if t.SpeedupPerExtraNode < 0 || t.OverheadPerExtraNode < 0 {
		return fmt.Errorf("cost: scaling slopes must be >= 0")
	}
	if t.MaxNodes < 1 {
		return fmt.Errorf("cost: MaxNodes must be >= 1")
	}
	if t.IndexProbeCPUSeconds < 0 {
		return fmt.Errorf("cost: index probe cost must be >= 0")
	}
	return nil
}

// Model prices queries and structures against one schedule. A Model is
// immutable and safe for concurrent use.
type Model struct {
	cat   *catalog.Catalog
	sched *pricing.Schedule
	tun   Tunables
}

// NewModel builds a cost model.
func NewModel(cat *catalog.Catalog, sched *pricing.Schedule, tun Tunables) (*Model, error) {
	if cat == nil {
		return nil, fmt.Errorf("cost: catalog is required")
	}
	if sched == nil {
		return nil, fmt.Errorf("cost: schedule is required")
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if err := tun.Validate(); err != nil {
		return nil, err
	}
	return &Model{cat: cat, sched: sched, tun: tun}, nil
}

// Catalog returns the catalog the model sizes against.
func (m *Model) Catalog() *catalog.Catalog { return m.cat }

// Schedule returns the model's price schedule.
func (m *Model) Schedule() *pricing.Schedule { return m.sched }

// Tunables returns the calibration constants.
func (m *Model) Tunables() Tunables { return m.tun }

// Speedup returns the parallel time-reduction factor for k nodes:
// time(k) = time(1)/Speedup(k). Speedup(3) == 2 with default tunables.
func (m *Model) Speedup(nodes int) float64 {
	if nodes <= 1 {
		return 1
	}
	return 1 + m.tun.SpeedupPerExtraNode*float64(nodes-1)
}

// Overhead returns the CPU inflation factor for k nodes:
// cpu(k) = cpu(1)·Overhead(k). Overhead(3) == 1.25 with default tunables.
func (m *Model) Overhead(nodes int) float64 {
	if nodes <= 1 {
		return 1
	}
	return 1 + m.tun.OverheadPerExtraNode*float64(nodes-1)
}

// scanOutcome is the common Eq. 8 machinery: scanning `bytes` on `nodes`
// parallel CPU nodes.
func (m *Model) scanOutcome(bytes int64, nodes int) Outcome {
	baseCPU, ioOps := m.scanBase(bytes)
	return m.onNodes(baseCPU, ioOps, nodes)
}

// scanBase is the node-independent half of Eq. 8: the CPU seconds one
// node spends scanning `bytes` (fcpu·qtot) and the I/O operations the
// scan issues (io·iotot).
func (m *Model) scanBase(bytes int64) (baseCPU float64, ioOps int64) {
	if bytes < 0 {
		bytes = 0
	}
	qtot := float64(bytes) / m.tun.BytesPerCostUnit
	baseCPU = m.sched.LCPU * m.sched.FCPU * qtot // seconds on one node
	ioOps = int64(float64(bytes/m.tun.PageSize) * m.sched.FIO)
	return baseCPU, ioOps
}

// onNodes splits a scan's one-node CPU across `nodes` parallel nodes: the
// elapsed time shrinks by Speedup, the total CPU grows by Overhead.
func (m *Model) onNodes(baseCPU float64, ioOps int64, nodes int) Outcome {
	elapsed := baseCPU / m.Speedup(nodes)
	cpuSeconds := baseCPU * m.Overhead(nodes)
	return Outcome{
		Time: time.Duration(elapsed * float64(time.Second)),
		Usage: Usage{
			CPUSeconds: cpuSeconds,
			IOOps:      ioOps,
		},
	}
}

// CacheExec is Eq. 8: the cost of running the query completely in the cache,
// optionally through a useful index, on `nodes` CPU nodes. Non-parallelizable
// templates ignore extra nodes.
func (m *Model) CacheExec(q *workload.Query, useIndex bool, nodes int) (Outcome, error) {
	sz, err := q.Sizes(m.cat)
	if err != nil {
		return Outcome{}, err
	}
	return m.CacheExecSized(q.Template, sz, useIndex, nodes), nil
}

// CacheExecSized is CacheExec for a query of template tpl already sized:
// a caller pricing every plan variant of one query sizes it once.
func (m *Model) CacheExecSized(tpl *workload.Template, sz workload.Sizes, useIndex bool, nodes int) Outcome {
	nodes = min(max(nodes, 1), m.tun.MaxNodes)
	if !tpl.Parallelizable {
		nodes = 1
	}
	if !useIndex {
		return m.scanOutcome(sz.Scan, nodes)
	}
	out := m.scanOutcome(sz.IndexScan, nodes)
	out.Usage.CPUSeconds += m.tun.IndexProbeCPUSeconds
	out.Time += time.Duration(m.tun.IndexProbeCPUSeconds * float64(time.Second))
	return out
}

// CacheScan is one sized query's cache scan — the plain scan, or the
// index probe when useIndex — costed and priced under the model's schedule
// once for every node count: the scan size, its one-node CPU, its I/O and
// the I/O's price do not depend on how many nodes run it. A caller pricing
// every plan variant of a query builds one CacheScan per scan size and
// asks At for each node count.
type CacheScan struct {
	m        *Model
	baseCPU  float64 // CPU seconds on one node
	ioOps    int64
	ioPrice  money.Amount
	probe    bool // an index probe: At adds IndexProbeCPUSeconds
	parallel bool // the template may run on extra nodes
}

// CacheScan prepares the Eq. 8 scan of a query of template tpl already
// sized, through a useful index when useIndex.
func (m *Model) CacheScan(tpl *workload.Template, sz workload.Sizes, useIndex bool) CacheScan {
	bytes := sz.Scan
	if useIndex {
		bytes = sz.IndexScan
	}
	baseCPU, ioOps := m.scanBase(bytes)
	return CacheScan{m: m, baseCPU: baseCPU, ioOps: ioOps, ioPrice: m.sched.IOCost(ioOps), probe: useIndex, parallel: tpl.Parallelizable}
}

// At returns the scan on `nodes` CPU nodes — exactly CacheExecSized's
// outcome — and its price, exactly Price of that outcome's usage: a cache
// scan moves no bytes over the WAN and boots nothing, so the price is the
// CPU term plus the I/O term.
func (s *CacheScan) At(nodes int) (Outcome, money.Amount) {
	m := s.m
	nodes = min(max(nodes, 1), m.tun.MaxNodes)
	if !s.parallel {
		nodes = 1
	}
	out := m.onNodes(s.baseCPU, s.ioOps, nodes)
	if s.probe {
		out.Usage.CPUSeconds += m.tun.IndexProbeCPUSeconds
		out.Time += time.Duration(m.tun.IndexProbeCPUSeconds * float64(time.Second))
	}
	price := m.sched.CPUCost(time.Duration(out.Usage.CPUSeconds*float64(time.Second)), 1)
	return out, price.Add(s.ioPrice)
}

// BackendExec is Eq. 9: the query runs completely in the back-end database
// (a row store, hence RowStoreFactor) and the result is shipped to the
// cache over the WAN. The transfer burns fn of a CPU while in flight.
func (m *Model) BackendExec(q *workload.Query) (Outcome, error) {
	sz, err := q.Sizes(m.cat)
	if err != nil {
		return Outcome{}, err
	}
	return m.BackendExecSized(sz), nil
}

// BackendExecSized is BackendExec for a query already sized.
func (m *Model) BackendExecSized(sz workload.Sizes) Outcome {
	rowBytes := int64(float64(sz.Scan) * m.tun.RowStoreFactor)
	out := m.scanOutcome(rowBytes, 1)
	transfer := m.sched.TransferTime(sz.Result)
	out.Time += transfer
	out.Usage.CPUSeconds += m.sched.FNet * transfer.Seconds()
	out.Usage.NetBytes += sz.Result
	return out
}

// BuildColumn is Eq. 12: transferring one column from the back-end into the
// cache. The build occupies the WAN for the transfer time and burns fn CPU.
func (m *Model) BuildColumn(ref catalog.ColumnRef) (Outcome, error) {
	size, err := m.cat.ColumnBytes(ref)
	if err != nil {
		return Outcome{}, err
	}
	transfer := m.sched.TransferTime(size)
	return Outcome{
		Time: transfer,
		Usage: Usage{
			CPUSeconds: m.sched.FNet * transfer.Seconds(),
			NetBytes:   size,
		},
	}, nil
}

// BuildIndex is Eq. 14: the cost of sorting the indexed columns in the
// cache (approximated by the ORDER-BY query of §V-C), plus BuildColumn for
// every indexed column not already cached. The caller passes a predicate
// reporting cache residency so the model stays stateless.
func (m *Model) BuildIndex(def catalog.IndexDef, cached func(catalog.ColumnRef) bool) (Outcome, error) {
	if err := def.Validate(m.cat); err != nil {
		return Outcome{}, err
	}
	// Iterate the column names directly — def.Refs() allocates a fresh
	// slice, and this sits on the per-query enumeration path (pricing
	// missing index candidates).
	var keyBytes int64
	for _, col := range def.Columns {
		b, err := m.cat.ColumnBytes(catalog.Col(def.Table, col))
		if err != nil {
			return Outcome{}, err
		}
		keyBytes += b
	}
	sortBytes := int64(float64(keyBytes) * m.tun.SortFactor)
	out := m.scanOutcome(sortBytes, 1)
	for _, col := range def.Columns {
		ref := catalog.Col(def.Table, col)
		if cached != nil && cached(ref) {
			continue
		}
		col, err := m.BuildColumn(ref)
		if err != nil {
			return Outcome{}, err
		}
		out.Usage.Add(col.Usage)
		out.Time += col.Time
	}
	return out, nil
}

// BuildCPUNode is Eq. 10: booting one node takes BootTime and costs b·u.
func (m *Model) BuildCPUNode() Outcome {
	return Outcome{
		Time:  m.sched.BootTime,
		Usage: Usage{Boots: 1},
	}
}

// MaintCost returns the maintenance rent of a structure held for duration d:
// Eq. 11 for CPU nodes (c per unit time), Eq. 13/15 for columns and indexes
// (size·cd). Rent is priced over the whole duration rather than per second
// because per-second storage rents round below the money resolution.
func (m *Model) MaintCost(kindIsCPU bool, bytes int64, d time.Duration) money.Amount {
	if d <= 0 {
		return 0
	}
	if kindIsCPU {
		return m.sched.CPUCost(d, 1)
	}
	return m.sched.StorageCost(bytes, d)
}
