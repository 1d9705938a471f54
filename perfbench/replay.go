package main

import (
	"fmt"
	"os"
	"time"

	"orchestra/internal/kvstore"
	"orchestra/internal/server"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// replayStats attributes the publish path's storage work, measured by
// replaying the set-up publishes in process.
type replayStats struct {
	pageBuildUs     float64 // GroupByPage + ApplyToPage + EncodePage + EncodeTupleRecord per publish
	pagesPerPublish float64
	commitUs        float64 // durable kvstore commits per publish, one replica
	walPerUserByte  float64 // WAL bytes appended per published payload byte, one replica
}

// replayPublishes replays w's set-up publish sequence (the same batches
// the deployment received, made from the same seed) through the public
// vstore and kvstore functions on one durable store under dir, timing
// each call. It mirrors one replica's share of cluster.Publish: build
// the copy-on-write pages, then commit tuples, pages, coordinator and
// catalog as separate writes and persist the epoch. Only the deltaRows
// publishes after the seed batches are averaged — they are the kind the
// measured loop issues. Lease, catalog CAS, replication RPCs and the
// epoch barrier are not replayed; they remain in
// cluster.publish_unattributed_us.
func replayPublishes(w *workload, seed int64, dir string) (replayStats, error) {
	var st replayStats
	if w.history == 0 {
		return st, nil
	}
	cols, err := server.ParseColumns(relColumns)
	if err != nil {
		return st, err
	}
	schema, err := tuple.NewSchema(relation, cols, "k")
	if err != nil {
		return st, err
	}
	// Automatic checkpoints are off so the log only grows and its size
	// measures what each publish appended.
	store, err := kvstore.Open(dir, kvstore.Options{Sync: kvstore.SyncAlways, CheckpointBytes: -1})
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	defer store.Close()

	cat := &vstore.Catalog{Schema: schema}
	var coord *vstore.Coordinator
	pages := make(map[vstore.PageID]*vstore.Page)
	m := newModel()
	g := newGenerator(seed)
	epoch := tuple.Epoch(0)
	var n int
	var build, commit time.Duration
	var written int
	var walBytes, userBytes int64
	err = w.batches(g, m, func(rows []row) error {
		epoch++
		ups := make([]vstore.Update, len(rows))
		for i, r := range rows {
			ups[i] = vstore.Update{Op: vstore.OpInsert, Row: tuple.Row{tuple.S(r.k), tuple.I(r.grp), tuple.I(r.v)}}
		}
		t0 := time.Now()
		newPages, writes, carried, err := buildPages(schema, coord, pages, epoch, ups)
		if err != nil {
			return err
		}
		tupleKVs := make([]kvstore.KV, len(writes))
		for i, wr := range writes {
			val, err := vstore.EncodeTupleRecord(schema, vstore.TupleRecord{ID: wr.ID, Row: wr.Row})
			if err != nil {
				return err
			}
			tupleKVs[i] = kvstore.KV{Key: vstore.TupleKVKey(wr.ID), Val: val}
		}
		pageKVs := make([]kvstore.KV, len(newPages))
		refs := carried
		for i := range newPages {
			p := &newPages[i]
			pageKVs[i] = kvstore.KV{Key: vstore.PageKVKey(p.Ref.ID), Val: vstore.EncodePage(p)}
			pages[p.Ref.ID] = p
			refs = append(refs, p.Ref)
		}
		t1 := time.Now()
		coord = &vstore.Coordinator{Relation: relation, Epoch: epoch, Pages: refs}
		coordVal := vstore.EncodeCoordinator(coord)
		cat = cat.WithEpoch(epoch)
		catVal := vstore.EncodeCatalog(cat)
		wal0 := store.WALSize()
		t2 := time.Now()
		if err := store.PutBatch(tupleKVs); err != nil {
			return err
		}
		if err := store.PutBatch(pageKVs); err != nil {
			return err
		}
		if err := store.Put(vstore.CoordKVKey(relation, epoch), coordVal); err != nil {
			return err
		}
		if err := store.Put(vstore.CatalogKVKey(relation), catVal); err != nil {
			return err
		}
		if err := store.SetEpoch(uint64(epoch)); err != nil {
			return err
		}
		t3 := time.Now()
		if err := m.apply(uint64(epoch), rows); err != nil {
			return err
		}
		if len(rows) == deltaRows {
			n++
			build += t1.Sub(t0)
			commit += t3.Sub(t2)
			written += len(newPages)
			walBytes += store.WALSize() - wal0
			userBytes += payloadBytes(rows)
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("publish replay: %w", err)
	}
	st.pageBuildUs = div(float64(build.Microseconds()), float64(n))
	st.commitUs = div(float64(commit.Microseconds()), float64(n))
	st.pagesPerPublish = div(float64(written), float64(n))
	st.walPerUserByte = div(float64(walBytes), float64(userBytes))
	return st, nil
}

// buildPages is the copy-on-write page step of a publish: initial pages
// for the first one, otherwise the touched pages rewritten and the rest
// carried over.
func buildPages(schema *tuple.Schema, coord *vstore.Coordinator, pages map[vstore.PageID]*vstore.Page, epoch tuple.Epoch, ups []vstore.Update) ([]vstore.Page, []vstore.TupleWrite, []vstore.PageRef, error) {
	if coord == nil {
		p, w, err := vstore.BuildInitialPages(schema, epoch, ups, 0)
		return p, w, nil, err
	}
	groups, err := vstore.GroupByPage(coord, schema, ups)
	if err != nil {
		return nil, nil, nil, err
	}
	var out []vstore.Page
	var writes []vstore.TupleWrite
	var carried []vstore.PageRef
	var seq uint32
	for _, ref := range coord.Pages {
		g, touched := groups[ref.ID]
		if !touched {
			carried = append(carried, ref)
			continue
		}
		np, w, err := vstore.ApplyToPage(pages[ref.ID], schema, epoch, g, 0, &seq)
		if err != nil {
			return nil, nil, nil, err
		}
		out = append(out, np...)
		writes = append(writes, w...)
	}
	return out, writes, carried, nil
}
