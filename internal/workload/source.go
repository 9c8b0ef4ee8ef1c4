package workload

import "time"

// Source is anything that yields an ordered query stream: the standard
// Zipf Generator, an adversary strategy wrapping it, or a merge of
// several of either. Queries must come out in non-decreasing Arrival
// order — the simulator advances the cache clock from them.
type Source interface {
	// Next returns the next query in the stream, the caller's to keep.
	Next() *Query
	// Batch appends the next n queries to buf and returns it (fewer when
	// the stream ends). The source may overwrite the queries it finds in
	// buf's spare capacity instead of allocating new ones, so a consumer
	// that recycles its batch buffer (buf[:0]) is declaring the previous
	// batch dead: every query of it handled, nothing — a plan, a report —
	// still pointing at one. Only hand back a buffer whose spare capacity
	// is empty or holds queries this same source put there. A source that
	// keeps queries it has yet to emit (Merge's look-ahead, an adversary's
	// state) must never put them where a later Batch would recycle them.
	Batch(n int, buf []*Query) []*Query
	// Clock reports the arrival time of the last query produced.
	Clock() time.Duration
}

var _ Source = (*Generator)(nil)

// Merge interleaves several sources into one stream ordered by arrival
// time. Each inner source is consulted one query ahead; ties break
// toward the earlier source, so a merge of deterministic sources is
// deterministic. Merge implements Source.
type Merge struct {
	srcs   []Source
	head   []*Query
	last   time.Duration
	nextID int64
}

// NewMerge builds a merged stream over the given sources.
func NewMerge(srcs ...Source) *Merge {
	m := &Merge{srcs: srcs, head: make([]*Query, len(srcs))}
	for i, s := range srcs {
		m.head[i] = s.Next()
	}
	return m
}

// Next returns the earliest-arriving head query across the sources.
func (m *Merge) Next() *Query {
	best := -1
	for i, q := range m.head {
		if q == nil {
			continue
		}
		if best == -1 || q.Arrival < m.head[best].Arrival {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	q := m.head[best]
	m.head[best] = m.srcs[best].Next()
	m.last = q.Arrival
	// Renumber: independent sources each count from 1, and downstream
	// consumers assume stream-unique IDs.
	m.nextID++
	q.ID = m.nextID
	return q
}

// Batch appends the next n queries to buf and returns it. Merged queries
// come from the inner sources' Next, so they are never recycled: what
// buf's spare capacity holds is ignored.
func (m *Merge) Batch(n int, buf []*Query) []*Query {
	for i := 0; i < n; i++ {
		q := m.Next()
		if q == nil {
			break
		}
		buf = append(buf, q)
	}
	return buf
}

// Clock reports the arrival time of the last merged query.
func (m *Merge) Clock() time.Duration { return m.last }
