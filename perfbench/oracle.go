package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// row is one tuple of the benchmark relation load(k string key, grp int, v int).
type row struct {
	k   string
	grp int64
	v   int64
}

// version is a key's value from an epoch on.
type version struct {
	epoch uint64
	grp   int64
	v     int64
}

// model is the oracle: every key's versions by epoch, built from the
// batches the benchmark generated and the epochs the cluster
// acknowledged for them. It is safe for concurrent use.
type model struct {
	mu     sync.Mutex
	keys   []string // first-publish order
	born   []uint64 // epoch each key of keys was first published
	hist   map[string][]version
	epochs []uint64 // acknowledged publish epochs, ascending
}

func newModel() *model { return &model{hist: make(map[string][]version)} }

// apply records an acknowledged publish of rows at epoch.
func (m *model) apply(epoch uint64, rows []row) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.epochs); n > 0 && epoch <= m.epochs[n-1] {
		return fmt.Errorf("publish acknowledged epoch %d after epoch %d", epoch, m.epochs[n-1])
	}
	m.epochs = append(m.epochs, epoch)
	for _, r := range rows {
		h, seen := m.hist[r.k]
		if !seen {
			m.keys = append(m.keys, r.k)
			m.born = append(m.born, epoch)
		}
		m.hist[r.k] = append(h, version{epoch: epoch, grp: r.grp, v: r.v})
	}
	return nil
}

// at returns the version of key visible at epoch.
func (m *model) at(key string, epoch uint64) (version, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hist[key]
	i := sort.Search(len(h), func(i int) bool { return h[i].epoch > epoch })
	if i == 0 {
		return version{}, false
	}
	return h[i-1], true
}

// keyCount is the number of keys, i.e. the relation's COUNT(*) at the
// newest acknowledged epoch (nothing is ever deleted).
func (m *model) keyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.keys)
}

// randomKey picks a key that exists at the newest acknowledged epoch.
func (m *model) randomKey(rng *rand.Rand) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.keys[rng.Intn(len(m.keys))]
}

// randomLatest picks the newest acknowledged epoch and a key that
// exists at it.
func (m *model) randomLatest(rng *rand.Rand) (string, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.keys[rng.Intn(len(m.keys))], m.epochs[len(m.epochs)-1]
}

// randomSnapshot picks an acknowledged epoch older than the newest and
// a key that existed at it.
func (m *model) randomSnapshot(rng *rand.Rand) (string, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.epochs[rng.Intn(len(m.epochs)-1)]
	n := sort.Search(len(m.born), func(i int) bool { return m.born[i] > e })
	return m.keys[rng.Intn(n)], e
}

// current returns the rows visible at the newest epoch.
func (m *model) current() []row {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]row, 0, len(m.keys))
	for _, k := range m.keys {
		h := m.hist[k]
		last := h[len(h)-1]
		out = append(out, row{k: k, grp: last.grp, v: last.v})
	}
	return out
}

// staticView answers the read classes of a relation that no longer
// changes: rows by v for range and top-K, group counts, and the
// checksum of a full scan.
type staticView struct {
	byV      []row
	groups   map[int64]int64
	checksum uint64
}

func newStaticView(rows []row) *staticView {
	sv := &staticView{byV: append([]row(nil), rows...), groups: make(map[int64]int64)}
	sort.Slice(sv.byV, func(i, j int) bool { return sv.byV[i].v < sv.byV[j].v })
	for _, r := range rows {
		sv.groups[r.grp]++
		sv.checksum += rowHash(r)
	}
	return sv
}

// rowHash mixes a row into 64 bits; a scan's checksum is the wrapping
// sum over its rows, so it is independent of arrival order but catches
// a lost, duplicated, or altered row.
func rowHash(r row) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(r.k); i++ {
		h ^= uint64(r.k[i])
		h *= 1099511628211
	}
	h ^= uint64(r.grp) * 0x9E3779B97F4A7C15
	h *= 1099511628211
	h ^= uint64(r.v) * 0xC2B2AE3D27D4EB4F
	h *= 1099511628211
	return h
}

// decodeRow converts one result row (k, grp, v) from the client.
func decodeRow(vals []any) (row, error) {
	if len(vals) != 3 {
		return row{}, fmt.Errorf("row has %d columns, want 3", len(vals))
	}
	k, ok1 := vals[0].(string)
	grp, ok2 := vals[1].(int64)
	v, ok3 := vals[2].(int64)
	if !ok1 || !ok2 || !ok3 {
		return row{}, fmt.Errorf("row %v has wrong types", vals)
	}
	return row{k: k, grp: grp, v: v}, nil
}

// checkPoint checks a point lookup of key against the version visible
// at epoch (the consistent-snapshot guarantee).
func (m *model) checkPoint(key string, epoch uint64, got [][]any) error {
	want, ok := m.at(key, epoch)
	if !ok {
		if len(got) != 0 {
			return fmt.Errorf("point %s@%d: got %v, want no row", key, epoch, got)
		}
		return nil
	}
	if len(got) != 1 {
		return fmt.Errorf("point %s@%d: got %d rows, want 1", key, epoch, len(got))
	}
	r, err := decodeRow(got[0])
	if err != nil {
		return fmt.Errorf("point %s@%d: %w", key, epoch, err)
	}
	if r != (row{k: key, grp: want.grp, v: want.v}) {
		return fmt.Errorf("point %s@%d: got %+v, want version of epoch %d (grp %d, v %d)",
			key, epoch, r, want.epoch, want.grp, want.v)
	}
	return nil
}

// rangeBounds returns the v bounds of the 500-row window starting at
// rank i.
func (sv *staticView) rangeBounds(i int) (lo, hi int64) {
	return sv.byV[i].v, sv.byV[i+rangeRows-1].v
}

// checkRange checks a range scan v BETWEEN lo AND hi: the exact row set.
func (sv *staticView) checkRange(lo, hi int64, got [][]any) error {
	i := sort.Search(len(sv.byV), func(i int) bool { return sv.byV[i].v >= lo })
	j := sort.Search(len(sv.byV), func(i int) bool { return sv.byV[i].v > hi })
	want := sv.byV[i:j]
	if len(got) != len(want) {
		return fmt.Errorf("range [%d,%d]: got %d rows, want %d", lo, hi, len(got), len(want))
	}
	rows := make([]row, len(got))
	for n, g := range got {
		r, err := decodeRow(g)
		if err != nil {
			return fmt.Errorf("range [%d,%d]: %w", lo, hi, err)
		}
		rows[n] = r
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].v < rows[b].v })
	for n := range rows {
		if rows[n] != want[n] {
			return fmt.Errorf("range [%d,%d]: row %d is %+v, want %+v", lo, hi, n, rows[n], want[n])
		}
	}
	return nil
}

// checkAgg checks GROUP BY grp COUNT(*): every group's count, exactly.
func (sv *staticView) checkAgg(got [][]any) error {
	if len(got) != len(sv.groups) {
		return fmt.Errorf("group by: got %d groups, want %d", len(got), len(sv.groups))
	}
	for _, g := range got {
		if len(g) != 2 {
			return fmt.Errorf("group by: row %v has %d columns, want 2", g, len(g))
		}
		grp, ok1 := g[0].(int64)
		n, ok2 := g[1].(int64)
		if !ok1 || !ok2 {
			return fmt.Errorf("group by: row %v has wrong types", g)
		}
		if sv.groups[grp] != n {
			return fmt.Errorf("group by: group %d counts %d, want %d", grp, n, sv.groups[grp])
		}
	}
	return nil
}

// topK returns the expected answer of v < x ORDER BY v DESC LIMIT k.
func (sv *staticView) topK(x int64, k int) []row {
	j := sort.Search(len(sv.byV), func(i int) bool { return sv.byV[i].v >= x })
	var out []row
	for i := j - 1; i >= 0 && len(out) < k; i-- {
		out = append(out, sv.byV[i])
	}
	return out
}

// checkTopK checks the top-K rows, in order.
func (sv *staticView) checkTopK(x int64, got [][]any) error {
	want := sv.topK(x, topK)
	if len(got) != len(want) {
		return fmt.Errorf("top-k v<%d: got %d rows, want %d", x, len(got), len(want))
	}
	for i, g := range got {
		r, err := decodeRow(g)
		if err != nil {
			return fmt.Errorf("top-k v<%d: %w", x, err)
		}
		if r != want[i] {
			return fmt.Errorf("top-k v<%d: row %d is %+v, want %+v", x, i, r, want[i])
		}
	}
	return nil
}

// scanSum accumulates a streamed full scan for checkScan.
type scanSum struct {
	rows     int
	checksum uint64
}

func (s *scanSum) add(vals []any) error {
	r, err := decodeRow(vals)
	if err != nil {
		return err
	}
	s.rows++
	s.checksum += rowHash(r)
	return nil
}

// checkScan checks a full-relation stream's row count and checksum.
func (sv *staticView) checkScan(s scanSum) error {
	if s.rows != len(sv.byV) {
		return fmt.Errorf("full scan: got %d rows, want %d", s.rows, len(sv.byV))
	}
	if s.checksum != sv.checksum {
		return fmt.Errorf("full scan: checksum %x, want %x", s.checksum, sv.checksum)
	}
	return nil
}
