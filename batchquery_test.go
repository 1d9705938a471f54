package orchestra

import (
	"fmt"
	"testing"

	"orchestra/internal/tuple"
)

func newScanCluster(t *testing.T, rows int) *Cluster {
	t.Helper()
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.CreateRelation(NewSchema("bq", "k:string", "grp:int", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	batch := make([]tuple.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, tuple.Row{tuple.S(fmt.Sprintf("k%05d", i)), tuple.I(int64(i % 7)), tuple.I(int64(i))})
	}
	if _, err := c.PublishTyped(0, "bq", batch); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryBatchesColumnar checks the serving hand-off: a non-provenance
// scan emits its whole answer through the columnar callback, and the
// content matches the buffered Query.
func TestQueryBatchesColumnar(t *testing.T) {
	c := newScanCluster(t, 500)
	q := "SELECT k, grp, v FROM bq WHERE v >= 100 AND v < 400"
	want, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 300 {
		t.Fatalf("reference query: %d rows", len(want.Rows))
	}

	var gotRows []tuple.Row
	var colEmits int
	var meta *Result
	res, err := c.QueryBatches(q, QueryOptions{},
		func(m *Result) error { meta = m; return nil },
		func(b *tuple.Batch) error {
			colEmits++
			gotRows = append(gotRows, b.Rows()...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.Rows != nil {
		t.Fatalf("start meta: %+v", meta)
	}
	if colEmits == 0 {
		t.Fatal("columnar callback never fired")
	}
	if res.Epoch != want.Epoch || len(res.Columns) != 3 {
		t.Fatalf("meta: %+v", res)
	}
	if len(gotRows) != len(want.Rows) {
		t.Fatalf("columnar emitted %d rows, query answered %d", len(gotRows), len(want.Rows))
	}
	seen := make(map[string]bool, len(want.Rows))
	for _, r := range want.Rows {
		seen[fmt.Sprint(r)] = true
	}
	for _, r := range gotRows {
		if !seen[fmt.Sprint(r)] {
			t.Fatalf("columnar row %v not in reference answer", r)
		}
	}
}

// TestQueryBatchesProvenanceEmitsBatch: provenance-mode collections are
// columnar too — the answer arrives through the batch callback, each
// provenance set having stayed beside its row at the initiator.
func TestQueryBatchesProvenanceEmitsBatch(t *testing.T) {
	c := newScanCluster(t, 200)
	q := "SELECT k, v FROM bq WHERE v < 50"
	var got []tuple.Row
	res, err := c.QueryBatches(q, QueryOptions{Provenance: true},
		func(*Result) error { return nil },
		func(b *tuple.Batch) error { got = append(got, b.Rows()...); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Streamed != 0 {
		t.Fatalf("provenance query streamed %d rows; it must take the collected path", res.Streamed)
	}
	if len(got) != 50 {
		t.Fatalf("batch callback delivered %d rows, want 50", len(got))
	}
	seen := make(map[int64]bool, len(got))
	for _, r := range got {
		if len(r) != 2 || r[1].I64 < 0 || r[1].I64 >= 50 || seen[r[1].I64] {
			t.Fatalf("row %v out of domain or duplicated", r)
		}
		seen[r[1].I64] = true
	}
}

// TestQueryLimitPushdown: a limit-only final pipeline must still answer
// exactly N valid rows through both the buffered and columnar paths (the
// early-completion optimization must never change the answer size).
func TestQueryLimitPushdown(t *testing.T) {
	c := newScanCluster(t, 2000)
	q := "SELECT k, grp, v FROM bq WHERE v >= 0 LIMIT 25"
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("LIMIT 25 answered %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r) != 3 || r[2].I64 < 0 || r[2].I64 >= 2000 {
			t.Fatalf("row out of domain: %v", r)
		}
	}
	var got int
	if _, err := c.QueryBatches(q, QueryOptions{},
		func(*Result) error { return nil },
		func(b *tuple.Batch) error { got += b.N; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 25 {
		t.Fatalf("columnar LIMIT 25 emitted %d rows", got)
	}
}

// TestQueryBatchesCacheHitEmitsBatch: the view cache stores the answer
// as an immutable batch, and a hit replays it through the same batch
// callback — repeatedly, without the served copy going stale.
func TestQueryBatchesCacheHitEmitsBatch(t *testing.T) {
	c := newScanCluster(t, 100)
	c.EnableQueryCache(16)
	q := "SELECT k, v FROM bq WHERE v < 40"
	want, err := c.Query(q) // fills the cache
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 40 {
		t.Fatalf("reference query: %d rows", len(want.Rows))
	}
	for run := 0; run < 3; run++ {
		var got []tuple.Row
		res, err := c.QueryBatches(q, QueryOptions{},
			func(*Result) error { return nil },
			func(b *tuple.Batch) error { got = append(got, b.Rows()...); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("run %d not served from cache", run)
		}
		if len(got) != len(want.Rows) {
			t.Fatalf("run %d: cache hit emitted %d rows, want %d", run, len(got), len(want.Rows))
		}
		for i := range got {
			if !got[i].Equal(want.Rows[i]) {
				t.Fatalf("run %d row %d: %v, want %v", run, i, got[i], want.Rows[i])
			}
		}
	}
	// A hit through QueryOpts materializes its own rows from the batch.
	hit, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || len(hit.Rows) != 40 {
		t.Fatalf("QueryOpts hit: cached=%v, %d rows", hit.Cached, len(hit.Rows))
	}
}
