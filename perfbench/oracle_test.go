package main

import (
	"math/rand"
	"testing"
)

// fixture is a small static relation and its model at epoch 1.
func fixture(t *testing.T) (*model, *staticView) {
	t.Helper()
	g := newGenerator(7)
	rows := make([]row, 2000)
	for i := range rows {
		rows[i] = g.newRow()
	}
	m := newModel()
	if err := m.apply(1, rows); err != nil {
		t.Fatal(err)
	}
	return m, newStaticView(m.current())
}

func wire(rows ...row) [][]any { return wireRows(rows) }

func TestOracleAcceptsTrueAnswers(t *testing.T) {
	m, sv := fixture(t)
	r := sv.byV[17]
	if err := m.checkPoint(r.k, 1, wire(r)); err != nil {
		t.Fatal(err)
	}
	lo, hi := sv.rangeBounds(100)
	want := sv.byV[100 : 100+rangeRows]
	// A range answer is a set: any order passes.
	shuffled := append([]row(nil), want...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if err := sv.checkRange(lo, hi, wire(shuffled...)); err != nil {
		t.Fatal(err)
	}
	x := sv.byV[500].v
	if err := sv.checkTopK(x, wire(sv.topK(x, topK)...)); err != nil {
		t.Fatal(err)
	}
	var agg [][]any
	for g, n := range sv.groups {
		agg = append(agg, []any{g, n})
	}
	if err := sv.checkAgg(agg); err != nil {
		t.Fatal(err)
	}
	var s scanSum
	for _, r := range sv.byV {
		if err := s.add(wire(r)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.checkScan(s); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRejectsWrongRow(t *testing.T) {
	m, sv := fixture(t)
	r := sv.byV[17]
	bad := r
	bad.v++
	if m.checkPoint(r.k, 1, wire(bad)) == nil {
		t.Error("point lookup with a wrong v passed")
	}
	if m.checkPoint(r.k, 1, nil) == nil {
		t.Error("point lookup with no row passed")
	}
	lo, hi := sv.rangeBounds(100)
	rows := append([]row(nil), sv.byV[100:100+rangeRows]...)
	rows[3].grp++
	if sv.checkRange(lo, hi, wire(rows...)) == nil {
		t.Error("range with a wrong grp passed")
	}
	if sv.checkRange(lo, hi, wire(rows[1:]...)) == nil {
		t.Error("range missing a row passed")
	}
	x := sv.byV[500].v
	top := sv.topK(x, topK)
	top[0], top[1] = top[1], top[0]
	if sv.checkTopK(x, wire(top...)) == nil {
		t.Error("top-k out of order passed")
	}
	var agg [][]any
	for g, n := range sv.groups {
		agg = append(agg, []any{g, n + 1})
	}
	if sv.checkAgg(agg) == nil {
		t.Error("group counts off by one passed")
	}
}

func TestOracleRejectsTruncatedStream(t *testing.T) {
	_, sv := fixture(t)
	var s scanSum
	for _, r := range sv.byV[:len(sv.byV)-1] {
		if err := s.add(wire(r)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if sv.checkScan(s) == nil {
		t.Error("stream one row short passed")
	}
	// A substituted row keeps the count but not the checksum.
	s.add(wire(row{k: "other", grp: 1, v: 2})[0])
	if sv.checkScan(s) == nil {
		t.Error("stream with a substituted row passed")
	}
}

func TestOracleRejectsStaleSnapshot(t *testing.T) {
	m, _ := fixture(t)
	k := m.keys[0]
	old, _ := m.at(k, 1)
	if err := m.apply(5, []row{{k: k, grp: old.grp + 1, v: old.v + 1}}); err != nil {
		t.Fatal(err)
	}
	oldRow := row{k: k, grp: old.grp, v: old.v}
	newRow := row{k: k, grp: old.grp + 1, v: old.v + 1}
	if err := m.checkPoint(k, 4, wire(oldRow)); err != nil {
		t.Errorf("version of epoch 1 at epoch 4: %v", err)
	}
	if err := m.checkPoint(k, 5, wire(newRow)); err != nil {
		t.Errorf("version of epoch 5 at epoch 5: %v", err)
	}
	if m.checkPoint(k, 5, wire(oldRow)) == nil {
		t.Error("stale version at epoch 5 passed")
	}
	if m.checkPoint(k, 4, wire(newRow)) == nil {
		t.Error("future version at epoch 4 passed")
	}
	if m.apply(3, nil) == nil {
		t.Error("an acknowledged epoch going backwards passed")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false}, // p50 leaves 9 beyond
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true}, // p75 leaves 9 beyond
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true}, // p95 leaves 9 beyond
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		q, ok := tailPercentile(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(q, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, q, c.n-rankOf(q, c.n))
		}
	}
}

func TestCoverage(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 20}, {30, 40}, {-5, 2}, {90, 200}}
	if got := coverage(iv, 100); got != 20+10+10 {
		t.Errorf("coverage = %d, want 40", got)
	}
}
