package server

import (
	"context"
	"sort"
	"sync"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/optimizer"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// NodeBackend serves a real TCP cluster.Node (the orchestra-node binary).
// Schemas are resolved from the cluster's replicated catalogs; the
// relation list for the catalog op is the set of relations this server
// has seen (created, published, or queried through it) — catalogs are
// hash-placed across the ring, so no cheap global listing exists.
type NodeBackend struct {
	node *cluster.Node
	eng  *engine.Engine

	mu   sync.Mutex
	rels map[string]struct{}
}

// NewNodeBackend wraps a node and its engine.
func NewNodeBackend(node *cluster.Node, eng *engine.Engine) *NodeBackend {
	return &NodeBackend{node: node, eng: eng, rels: make(map[string]struct{})}
}

func (b *NodeBackend) noteRelation(rel string) {
	b.mu.Lock()
	b.rels[rel] = struct{}{}
	b.mu.Unlock()
}

// Create implements Backend.
func (b *NodeBackend) Create(ctx context.Context, req *CreateRequest) (tuple.Epoch, error) {
	cols, err := ParseColumns(req.Columns)
	if err != nil {
		return 0, err
	}
	if len(cols) == 0 {
		return 0, Errorf(CodeBadRequest, "relation %q has no columns", req.Relation)
	}
	keys := req.Keys
	if len(keys) == 0 {
		keys = []string{cols[0].Name}
	}
	s, err := tuple.NewSchema(req.Relation, cols, keys...)
	if err != nil {
		return 0, Errorf(CodeBadRequest, "%v", err)
	}
	if err := b.node.CreateRelation(ctx, s); err != nil {
		return 0, err
	}
	b.noteRelation(req.Relation)
	return b.node.Gossip().Current(), nil
}

// Publish implements Backend.
func (b *NodeBackend) Publish(ctx context.Context, req *PublishRequest) (tuple.Epoch, error) {
	cat, err := b.node.GetCatalog(ctx, req.Relation)
	if err != nil {
		return 0, Errorf(CodeNotFound, "relation %q: %v", req.Relation, err)
	}
	if err := CoerceTypedRows(cat.Schema, req.TypedRows); err != nil {
		return 0, err
	}
	ups := make([]vstore.Update, len(req.TypedRows))
	for i, row := range req.TypedRows {
		ups[i] = vstore.Update{Op: vstore.OpInsert, Row: row}
	}
	e, err := b.node.PublishWith(ctx, req.Relation, ups, cluster.PublishOptions{ID: req.PublishID})
	if err != nil {
		return 0, err
	}
	b.noteRelation(req.Relation)
	return e, nil
}

// runQuery parses, plans, and executes one wire query, returning the
// engine result plus the derived output column names and (when asked
// for) the plan explanation. When req.Trace is set, the returned trace's
// span tree covers planning and execution; the engine attaches fragment
// spans under its root. attach (optional) runs after planning, before
// execution — QueryStream uses it to hook a sink into the engine
// options for stream-eligible plans.
func (b *NodeBackend) runQuery(ctx context.Context, req *QueryRequest, attach func(*engine.Plan, *engine.Options, []string)) (*engine.Result, []string, string, *obs.Trace, error) {
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace(obs.NewTraceID(), "query", string(b.node.ID()))
	}
	planSpan := tr.Begin("plan")
	q, err := sql.Parse(req.SQL)
	if err != nil {
		return nil, nil, "", nil, Errorf(CodeBadRequest, "%v", err)
	}
	rec, err := RecoveryMode(req.Recovery)
	if err != nil {
		return nil, nil, "", nil, err
	}
	cat := &nodeCatalog{ctx: ctx, node: b.node}
	plan, info, err := optimizer.Build(q, cat, optimizer.Environment{Nodes: b.node.Table().Size()})
	if err != nil {
		return nil, nil, "", nil, err
	}
	tr.End(planSpan)
	tr.Attach(nil, planSpan)
	cols := q.OutputColumns(func(table string) ([]string, bool) {
		s, err := cat.Schema(table)
		if err != nil {
			return nil, false
		}
		names := make([]string, len(s.Columns))
		for i, col := range s.Columns {
			names[i] = col.Name
		}
		return names, true
	})
	opts := engine.Options{
		Epoch:      tuple.Epoch(req.Epoch),
		Recovery:   rec,
		Provenance: req.Provenance,
		Trace:      tr,
	}
	if attach != nil {
		attach(plan, &opts, cols)
	}
	res, err := b.eng.Run(ctx, plan, opts)
	if err != nil {
		return nil, nil, "", nil, err
	}
	for _, ref := range q.From {
		b.noteRelation(ref.Table)
	}
	explain := ""
	if req.Explain {
		explain = optimizer.Explain(plan, info)
	}
	return res, cols, explain, tr, nil
}

// QueryStream implements Backend. Stream-eligible plans (no
// restart-sensitive finals) emit through an engine sink *during*
// execution: the schema frame goes out with the first fragment batch and
// the initiator never materializes the full answer. Everything else
// keeps the collected contract — the engine's exactly-once answer
// (complete at the initiator) drains to the wire under stream flow
// control afterwards. Either way there is no wire-encoded copy of the
// whole result; the stream writer re-chunks into size-bounded frames
// encoded straight from the engine's column vectors, which are recycled
// into the engine's arena after the hand-off.
func (b *NodeBackend) QueryStream(ctx context.Context, req *QueryRequest, out ResultStream) (*QueryTail, error) {
	sink := &nodeSink{out: out}
	res, cols, explain, tr, err := b.runQuery(ctx, req, func(plan *engine.Plan, opts *engine.Options, cols []string) {
		if engine.StreamEligible(plan, *opts) {
			sink.cols = cols
			opts.Sink = sink
		}
	})
	if err != nil {
		// Frames may already be on the wire (mid-stream fault after
		// emission): the caller terminates the stream with an error End,
		// which explicitly invalidates the partial result for the client.
		return nil, err
	}
	if sink.attached() {
		// Streamed during execution. Zero-row answers still owe the
		// client a schema frame.
		if err := sink.begin(); err != nil {
			return nil, err
		}
		tail := &QueryTail{
			Epoch:    uint64(res.Epoch),
			Phases:   res.Phases,
			Restarts: res.Restarts,
			Plan:     explain,
			Streamed: res.Streamed,
		}
		if tr != nil {
			tr.Finish()
			tail.TraceID = tr.ID.String()
			tail.Trace = tr.Root()
		}
		return tail, nil
	}
	writeSpan := tr.Begin("stream.write")
	defer engine.RecycleResultBatch(res.Batch)
	if err := out.Columns(cols); err != nil {
		return nil, err
	}
	rows := int64(res.Batch.N)
	if rows > 0 {
		if err := out.Batches(res.Batch); err != nil {
			return nil, err
		}
	}
	tail := &QueryTail{
		Epoch:    uint64(res.Epoch),
		Phases:   res.Phases,
		Restarts: res.Restarts,
		Plan:     explain,
	}
	if tr != nil {
		writeSpan.Rows = rows
		tr.End(writeSpan)
		tr.Attach(nil, writeSpan)
		tr.Finish()
		tail.TraceID = tr.ID.String()
		tail.Trace = tr.Root()
	}
	return tail, nil
}

// nodeSink adapts a wire ResultStream to the engine's StreamSink: the
// engine's drainer goroutine hands it chunks during execution and it
// forwards them to the stream writer, sending the schema frame lazily
// before the first chunk. Calls are serialized by the drainer, and a
// write error (credit starvation, dead connection) propagates back into
// the engine, aborting the query.
type nodeSink struct {
	out     ResultStream
	cols    []string // set when the sink is attached to the engine options
	started bool
}

func (s *nodeSink) attached() bool { return s.cols != nil }

// begin sends the schema frame once, before the first chunk (or, for
// empty answers, when execution completes).
func (s *nodeSink) begin() error {
	if s.started {
		return nil
	}
	s.started = true
	return s.out.Columns(s.cols)
}

// StreamCols implements engine.StreamSink. The batch is borrowed: the
// writer copies what it stages, so handing it straight down is safe.
func (s *nodeSink) StreamCols(b *tuple.Batch) error {
	if err := s.begin(); err != nil {
		return err
	}
	return s.out.Batches(b)
}

// Catalog implements Backend.
func (b *NodeBackend) Catalog(ctx context.Context, rel string) (*SchemaResponse, error) {
	var names []string
	if rel != "" {
		names = []string{rel}
	} else {
		b.mu.Lock()
		for r := range b.rels {
			names = append(names, r)
		}
		b.mu.Unlock()
		sort.Strings(names)
	}
	out := &SchemaResponse{}
	for _, name := range names {
		cat, err := b.node.GetCatalog(ctx, name)
		if err != nil {
			if rel != "" {
				return nil, Errorf(CodeNotFound, "relation %q: %v", name, err)
			}
			continue // dropped or unreachable; skip in listings
		}
		cols, keys := FormatColumns(cat.Schema)
		out.Relations = append(out.Relations, RelationInfo{
			Relation: name,
			Columns:  cols,
			Keys:     keys,
			Rows:     cat.Rows,
		})
	}
	return out, nil
}

// Epoch implements Backend.
func (b *NodeBackend) Epoch() tuple.Epoch { return b.node.Gossip().Current() }

// Info implements Backend.
func (b *NodeBackend) Info() BackendInfo {
	return BackendInfo{NodeID: string(b.node.ID()), Members: b.node.Table().Size()}
}

// CacheStats implements CacheStatsProvider: this node's decoded-page
// LRU (node backends keep no view cache).
func (b *NodeBackend) CacheStats() map[string]engine.CacheStats {
	return map[string]engine.CacheStats{"pages": b.eng.PageCacheStats()}
}

// DurabilityStats implements DurabilityStatsProvider from the node's
// local store (ok is false for in-memory stores).
func (b *NodeBackend) DurabilityStats() (kvstore.DurabilityStats, bool) {
	return b.node.Store().DurabilityStats()
}

// ReplStats implements ReplStatsProvider: the node's replica-repair
// counters and per-peer catch-up lag (ok is false when the node has no
// peers to replicate with).
func (b *NodeBackend) ReplStats() (cluster.ReplStats, bool) {
	return b.node.ReplStats(), b.node.Table().Size() > 1
}

// nodeCatalog resolves schemas and row-count statistics from the
// replicated catalogs for the optimizer. The catalog record carries the
// relation's persisted row count, so node-side planning sees real
// statistics — across restarts too.
type nodeCatalog struct {
	ctx  context.Context
	node *cluster.Node

	mu    sync.Mutex
	cache map[string]*vstore.Catalog
}

func (c *nodeCatalog) get(table string) (*vstore.Catalog, error) {
	c.mu.Lock()
	if cat, ok := c.cache[table]; ok {
		c.mu.Unlock()
		return cat, nil
	}
	c.mu.Unlock()
	cat, err := c.node.GetCatalog(c.ctx, table)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[string]*vstore.Catalog)
	}
	c.cache[table] = cat
	c.mu.Unlock()
	return cat, nil
}

func (c *nodeCatalog) Schema(table string) (*tuple.Schema, error) {
	cat, err := c.get(table)
	if err != nil {
		return nil, err
	}
	return cat.Schema, nil
}

func (c *nodeCatalog) Stats(table string) optimizer.TableStats {
	cat, err := c.get(table)
	if err != nil {
		return optimizer.TableStats{}
	}
	return optimizer.TableStats{Rows: cat.Rows}
}
