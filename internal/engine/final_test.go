package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"orchestra/internal/tuple"
)

// The columnar final pipeline (applyFinalOpsCols) must agree exactly with
// the row-form oracle (applyFinalOps, reference_test.go) — including NaN
// ordering in sorts, integer preservation in aggregate merges, and limit
// truncation points.

// valueKey renders a value for exact comparison: Value.Equal treats NaN
// as equal to everything (the Cmp quirk), so compare bit patterns.
func valueKey(v tuple.Value) string {
	switch v.T {
	case tuple.Int64:
		return fmt.Sprintf("i%d", v.I64)
	case tuple.Float64:
		return fmt.Sprintf("f%016x", math.Float64bits(v.F64))
	case tuple.String:
		return "s" + v.Str
	}
	return "?"
}

func rowKey(r tuple.Row) string {
	s := ""
	for _, v := range r {
		s += valueKey(v) + "|"
	}
	return s
}

func rowKeys(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	return out
}

// randRows builds rows over the fixed (int, float, string) shape, with
// NaN/Inf floats and duplicate values mixed in.
func randRows(rng *rand.Rand, n int) []tuple.Row {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0, 1.5}
	rows := make([]tuple.Row, n)
	for i := range rows {
		f := rng.Float64() * 100
		if rng.Intn(4) == 0 {
			f = specials[rng.Intn(len(specials))]
		}
		rows[i] = tuple.Row{
			tuple.I(int64(rng.Intn(20) - 10)),
			tuple.F(f),
			tuple.S(fmt.Sprintf("s%02d", rng.Intn(12))),
		}
	}
	return rows
}

func batchOfRows(t *testing.T, rows []tuple.Row) *tuple.Batch {
	t.Helper()
	b := &tuple.Batch{}
	if len(rows) == 0 {
		b.ResetTypes([]tuple.Type{tuple.Int64, tuple.Float64, tuple.String})
		return b
	}
	types := make([]tuple.Type, len(rows[0]))
	for i, v := range rows[0] {
		types[i] = v.T
	}
	b.ResetTypes(types)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return b
}

func cloneRows(rows []tuple.Row) []tuple.Row {
	out := make([]tuple.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// randFinalOps builds a random non-agg pipeline (sort/compute/limit);
// these preserve deterministic row order, so outputs compare exactly.
func randFinalOps(rng *rand.Rand, arity int) []FinalOp {
	var ops []FinalOp
	for n := rng.Intn(4); len(ops) < n; {
		switch rng.Intn(3) {
		case 0:
			keys := []SortKey{{Col: rng.Intn(arity), Desc: rng.Intn(2) == 0}}
			if rng.Intn(2) == 0 {
				keys = append(keys, SortKey{Col: rng.Intn(arity), Desc: rng.Intn(2) == 0})
			}
			ops = append(ops, &FinalSort{Keys: keys})
		case 1:
			exprs := []Expr{
				Col{Idx: rng.Intn(arity)},
				Bin{Op: OpAdd, L: Col{Idx: 0}, R: Const{Val: tuple.I(int64(rng.Intn(5)))}},
			}
			if rng.Intn(2) == 0 {
				exprs = append(exprs, Bin{Op: OpMul, L: Col{Idx: 1}, R: Const{Val: tuple.F(2)}})
			}
			ops = append(ops, &FinalCompute{Exprs: exprs})
			arity = len(exprs)
		case 2:
			ops = append(ops, &FinalLimit{N: rng.Intn(40)})
		}
	}
	return ops
}

func TestFinalOpsBatchRowEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		rows := randRows(rng, rng.Intn(60))
		ops := randFinalOps(rng, 3)

		wantRows, err := applyFinalOps(ops, cloneRows(rows))
		if err != nil {
			t.Fatalf("round %d: oracle: %v", round, err)
		}
		b, err := applyFinalOpsCols(ops, batchOfRows(t, rows))
		if err != nil {
			t.Fatalf("round %d: batch path: %v", round, err)
		}
		wantK, gotK := rowKeys(wantRows), rowKeys(b.Rows())
		if len(wantK) != len(gotK) {
			t.Fatalf("round %d ops %v: oracle %d rows, batch path %d", round, ops, len(wantK), len(gotK))
		}
		for i := range wantK {
			if wantK[i] != gotK[i] {
				t.Fatalf("round %d ops %v: row %d differs:\n oracle: %s\n batch:  %s", round, ops, i, wantK[i], gotK[i])
			}
		}
	}
}

// TestFinalAggBatchRowEquivalence feeds partial-layout aggregate rows
// through the columnar merge and the oracle. A batch column holds one
// type, so each round draws its partial sums all-int or all-float. Output
// order is map-iteration dependent, so results compare as sorted sets.
func TestFinalAggBatchRowEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := []AggSpec{
		{Func: AggCount, Col: -1},
		{Func: AggSum, Col: 1},
		{Func: AggMin, Col: 1},
		{Func: AggMax, Col: 1},
		{Func: AggAvg, Col: 1},
	}
	for round := 0; round < 100; round++ {
		// Partial layout: group col, then count, sum, min, max, avg-sum,
		// avg-count.
		n := rng.Intn(50)
		floatSums := rng.Intn(3) == 0
		rows := make([]tuple.Row, n)
		for i := range rows {
			sum := tuple.Value(tuple.I(int64(rng.Intn(100))))
			if floatSums {
				sum = tuple.F(rng.Float64() * 10)
			}
			rows[i] = tuple.Row{
				tuple.I(int64(rng.Intn(6))),
				tuple.I(int64(rng.Intn(10))),
				sum,
				tuple.F(rng.Float64()),
				tuple.F(rng.Float64()),
				tuple.F(rng.Float64() * 5),
				tuple.I(int64(1 + rng.Intn(4))),
			}
		}
		ops := []FinalOp{&FinalAgg{GroupCols: []int{0}, Aggs: specs}}
		wantRows, err := applyFinalOps(ops, cloneRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		in := &tuple.Batch{}
		if n > 0 {
			in = batchOfRows(t, rows)
		}
		b, err := applyFinalOpsCols(ops, in)
		if err != nil {
			t.Fatal(err)
		}
		wantK, gotK := rowKeys(wantRows), rowKeys(b.Rows())
		sort.Strings(wantK)
		sort.Strings(gotK)
		if len(wantK) != len(gotK) {
			t.Fatalf("round %d: %d vs %d groups", round, len(wantK), len(gotK))
		}
		for i := range wantK {
			if wantK[i] != gotK[i] {
				t.Fatalf("round %d: group %d differs:\n oracle: %s\n batch:  %s", round, i, wantK[i], gotK[i])
			}
		}
	}
}

// TestFinalComputeNoPerRowAlloc pins that the columnar FinalCompute
// allocates per batch, not per row.
func TestFinalComputeNoPerRowAlloc(t *testing.T) {
	rows := make([]tuple.Row, 4096)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.F(float64(i))}
	}
	in := batchOfRows(t, rows)
	ops := []FinalOp{&FinalCompute{Exprs: []Expr{
		Col{Idx: 0},
		Bin{Op: OpAdd, L: Col{Idx: 0}, R: Const{Val: tuple.I(7)}},
	}}}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := applyFinalOpsCols(ops, in); err != nil {
			t.Fatal(err)
		}
	})
	// Compiled closures, the output batch and its vectors; anything near
	// len(rows) means a per-row allocation crept in.
	if allocs > 64 {
		t.Fatalf("FinalCompute allocations per run = %.0f, want O(1), not O(rows)", allocs)
	}
}

// TestFinalComputeTypeChangeIsError: output types depend only on input
// column types, so a compute whose result type changes mid-batch is a
// bug the columnar pipeline reports instead of changing form.
func TestFinalComputeTypeChangeIsError(t *testing.T) {
	b := batchOfRows(t, []tuple.Row{{tuple.I(1)}, {tuple.I(2)}})
	calls := 0
	flip := func(tuple.Row) tuple.Value {
		calls++
		if calls > 1 {
			return tuple.S("x")
		}
		return tuple.I(0)
	}
	if _, err := computeCols([]Expr{funcExpr(flip)}, b); err == nil {
		t.Fatal("type change mid-batch: want error")
	}
}

// funcExpr adapts a Go function to Expr (compiled through the interpreted
// fallback).
type funcExpr func(tuple.Row) tuple.Value

func (f funcExpr) Eval(row tuple.Row) tuple.Value { return f(row) }
func (f funcExpr) append(dst []byte) []byte       { return dst }
func (f funcExpr) String() string                 { return "func" }

// TestLimitOnlyFinalDetection pins the pushdown predicate.
func TestLimitOnlyFinalDetection(t *testing.T) {
	cases := []struct {
		ops  []FinalOp
		want int
	}{
		{nil, -1},
		{[]FinalOp{&FinalLimit{N: 10}}, 10},
		{[]FinalOp{&FinalLimit{N: 10}, &FinalLimit{N: 3}}, 3},
		{[]FinalOp{&FinalSort{Keys: []SortKey{{Col: 0}}}, &FinalLimit{N: 10}}, -1},
		{[]FinalOp{&FinalLimit{N: 5}, &FinalCompute{Exprs: []Expr{Col{Idx: 0}}}}, -1},
	}
	for i, c := range cases {
		if got := limitOnlyFinal(c.ops); got != c.want {
			t.Fatalf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}
