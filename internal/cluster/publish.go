package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// GetCatalog fetches a relation's catalog.
func (n *Node) GetCatalog(ctx context.Context, relation string) (*vstore.Catalog, error) {
	data, err := n.GetRecord(ctx, vstore.CatalogPlacement(relation), vstore.CatalogKVKey(relation))
	if errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchRelation, relation)
	}
	if err != nil {
		return nil, err
	}
	return vstore.DecodeCatalog(data)
}

// GetCoordinator fetches the relation coordinator record for an exact
// modification epoch (callers resolve the effective epoch via the catalog).
func (n *Node) GetCoordinator(ctx context.Context, relation string, e tuple.Epoch) (*vstore.Coordinator, error) {
	data, err := n.GetRecord(ctx, vstore.CoordPlacement(relation, e), vstore.CoordKVKey(relation, e))
	if err != nil {
		return nil, err
	}
	return vstore.DecodeCoordinator(data)
}

// CreateRelation registers a new relation's schema in the CDSS. The relation
// becomes visible to publishes and queries immediately; it has no tuples
// until the first publish.
func (n *Node) CreateRelation(ctx context.Context, schema *tuple.Schema) error {
	if _, err := n.GetCatalog(ctx, schema.Relation); err == nil {
		return fmt.Errorf("%w: %s", ErrRelationExists, schema.Relation)
	} else if !errors.Is(err, ErrNoSuchRelation) {
		return err
	}
	cat := &vstore.Catalog{Schema: schema}
	return n.PutRecord(ctx, vstore.CatalogPlacement(schema.Relation),
		vstore.CatalogKVKey(schema.Relation), vstore.EncodeCatalog(cat))
}

// Publish applies a participant's update log to the versioned store as one
// batch at a fresh epoch (§IV): affected index pages are rewritten
// copy-on-write, new tuple versions are bulk-loaded to their data nodes, a
// new coordinator record links changed and unchanged pages, and the catalog
// gains the new epoch. It returns the publish epoch.
//
// Write ordering guarantees snapshot consistency for readers: tuples before
// pages, pages before the coordinator, the coordinator before the catalog —
// so a reader that can see epoch e in the catalog can reach all of e's data.
//
// Publishes to the same relation are serialized: within this process by
// the per-relation mutex, and across processes by a short-lived lease on
// the relation acquired from the catalog's primary replica (lease.go) —
// the whole sequence is a distributed read-modify-write of the relation's
// catalog, and two concurrent publishes building on the same base epoch
// would each link only their own pages, so the last catalog write would
// win and silently drop the other's tuples.
func (n *Node) Publish(ctx context.Context, relation string, ups []vstore.Update) (tuple.Epoch, error) {
	return n.PublishWith(ctx, relation, ups, PublishOptions{})
}

// PublishOptions tunes one publish.
type PublishOptions struct {
	// ID is a caller-chosen idempotency token. When non-zero, a publish
	// whose ID matches a recently applied one (Catalog.RecentPubs) is not
	// re-applied: the previously committed epoch is returned instead. This
	// is what makes a publish safe to retry after a lost acknowledgement.
	ID uint64
}

// PublishWith is Publish with per-call options.
func (n *Node) PublishWith(ctx context.Context, relation string, ups []vstore.Update, opts PublishOptions) (tuple.Epoch, error) {
	mu := n.relationLock(relation)
	mu.Lock()
	defer mu.Unlock()
	releaseLease, err := n.acquireRelLease(ctx, relation)
	if err != nil {
		return 0, fmt.Errorf("cluster: publish %s: %w", relation, err)
	}
	defer releaseLease()
	cat, err := n.GetCatalog(ctx, relation)
	if err != nil {
		return 0, err
	}
	if e, ok := cat.FindPub(opts.ID); ok {
		return e, nil // duplicate of an already-applied publish
	}
	latest, hasLatest := cat.LatestEpoch()
	// Claim the epoch without exposing it: Current() rises only once the
	// catalog names the epoch (Announce below), so until then an unpinned
	// query keeps reading the version it can see under the epoch that
	// labels it, and a publish that fails leaves Current() where it was.
	epoch := n.gsp.Next(latest)

	var pages []vstore.Page
	var writes []vstore.TupleWrite
	var carried []vstore.PageRef // unchanged pages linked into the new version

	if !hasLatest {
		pages, writes, err = vstore.BuildInitialPages(cat.Schema, epoch, ups, n.cfg.MaxPageEntries)
		if err != nil {
			return 0, err
		}
	} else {
		coord, err := n.GetCoordinator(ctx, relation, latest)
		if err != nil {
			return 0, fmt.Errorf("cluster: fetch coordinator %s@%d: %w", relation, latest, err)
		}
		groups, err := vstore.GroupByPage(coord, cat.Schema, ups)
		if err != nil {
			return 0, err
		}
		var seq uint32
		for _, ref := range coord.Pages {
			g, touched := groups[ref.ID]
			if !touched {
				carried = append(carried, ref)
				continue
			}
			oldPage, err := n.fetchPage(ctx, ref)
			if err != nil {
				return 0, fmt.Errorf("cluster: fetch page %s: %w", ref.ID, err)
			}
			newPages, w, err := vstore.ApplyToPage(oldPage, cat.Schema, epoch, g, n.cfg.MaxPageEntries, &seq)
			if err != nil {
				return 0, err
			}
			pages = append(pages, newPages...)
			writes = append(writes, w...)
		}
	}

	// 1. Tuple versions, bulk, batched by destination.
	tuplePuts := make([]RecordPut, 0, len(writes))
	for _, w := range writes {
		val, err := vstore.EncodeTupleRecord(cat.Schema, vstore.TupleRecord{ID: w.ID, Row: w.Row})
		if err != nil {
			return 0, err
		}
		tuplePuts = append(tuplePuts, RecordPut{
			Placement: w.ID.Hash(),
			KVKey:     vstore.TupleVersionKey(relation, w.ID),
			Value:     val,
		})
	}
	if err := n.PutRecords(ctx, tuplePuts); err != nil {
		return 0, fmt.Errorf("cluster: publish tuples: %w", err)
	}

	// 2. Index pages at their range midpoints.
	pagePuts := make([]RecordPut, 0, len(pages))
	newRefs := make([]vstore.PageRef, 0, len(pages)+len(carried))
	for i := range pages {
		p := &pages[i]
		pagePuts = append(pagePuts, RecordPut{
			Placement: p.Ref.Placement(),
			KVKey:     vstore.PageKVKey(p.Ref.ID),
			Value:     vstore.EncodePage(p),
		})
		newRefs = append(newRefs, p.Ref)
	}
	if err := n.PutRecords(ctx, pagePuts); err != nil {
		return 0, fmt.Errorf("cluster: publish pages: %w", err)
	}
	newRefs = append(newRefs, carried...)

	// 3. Coordinator record for (relation, epoch).
	coord := &vstore.Coordinator{Relation: relation, Epoch: epoch, Pages: newRefs}
	if err := n.PutRecord(ctx, vstore.CoordPlacement(relation, epoch),
		vstore.CoordKVKey(relation, epoch), vstore.EncodeCoordinator(coord)); err != nil {
		return 0, fmt.Errorf("cluster: publish coordinator: %w", err)
	}

	// 4. Catalog update makes the epoch visible — and, atomically with
	// it, the publish mark (idempotent-retry dedup) and the refreshed
	// row-count statistic.
	cat2 := cat.WithEpoch(epoch)
	for _, u := range ups {
		switch u.Op {
		case vstore.OpInsert:
			cat2.Rows++
		case vstore.OpDelete:
			if cat2.Rows > 0 {
				cat2.Rows--
			}
		}
	}
	cat2.MarkPub(opts.ID, epoch)
	if err := n.PutRecord(ctx, vstore.CatalogPlacement(relation),
		vstore.CatalogKVKey(relation), vstore.EncodeCatalog(cat2)); err != nil {
		return 0, fmt.Errorf("cluster: publish catalog: %w", err)
	}
	// Only now, with the catalog naming the epoch, does it become the
	// current epoch, here and at the peers it is announced to. The wait
	// for their acknowledgements is short: a peer that does not answer in
	// time learns the epoch through periodic gossip.
	actx, cancel := context.WithTimeout(ctx, min(n.cfg.RequestTimeout, announceWait))
	n.gsp.Announce(actx, epoch)
	cancel()
	// The epoch advance is part of the publish's acknowledgement: on a
	// durable store it must survive a crash, or a restarted node would
	// gossip an old epoch while the catalog already names this one. The
	// gossip OnAdvance hook persisted it best-effort; this is the
	// error-checked barrier (idempotent if the hook already succeeded).
	if err := n.store.SetEpoch(uint64(epoch)); err != nil {
		return 0, fmt.Errorf("cluster: persist publish epoch %d: %w", epoch, err)
	}
	return epoch, nil
}

// announceWait bounds how long a publish waits for its peers to
// acknowledge the new epoch.
const announceWait = 100 * time.Millisecond

// relationLock returns the per-relation publish lock.
func (n *Node) relationLock(relation string) *sync.Mutex {
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	mu, ok := n.pubRels[relation]
	if !ok {
		mu = new(sync.Mutex)
		n.pubRels[relation] = mu
	}
	return mu
}

// fetchPage loads an index page from its replicas.
func (n *Node) fetchPage(ctx context.Context, ref vstore.PageRef) (*vstore.Page, error) {
	data, err := n.GetRecord(ctx, ref.Placement(), vstore.PageKVKey(ref.ID))
	if err != nil {
		return nil, err
	}
	return vstore.DecodePage(data)
}

// ResolveEpoch maps "relation R as of global epoch e" to the exact
// modification epoch whose coordinator should be read. ok is false when the
// relation had no published state at e.
func (n *Node) ResolveEpoch(ctx context.Context, relation string, e tuple.Epoch) (tuple.Epoch, *vstore.Catalog, bool, error) {
	cat, err := n.GetCatalog(ctx, relation)
	if err != nil {
		return 0, nil, false, err
	}
	eff, ok := cat.EffectiveEpoch(e)
	return eff, cat, ok, nil
}
