package orchestra

import (
	"context"
	"fmt"
	"time"

	"orchestra/internal/engine"
	"orchestra/internal/obs"
	"orchestra/internal/optimizer"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
)

// TraceSpan is one timed stage of a traced query execution — the nodes
// of Result.Trace's span tree (plan, per-fragment scans, ship
// encode/decode, the final pipeline). Remote spans carry start offsets
// relative to their own fragment's clock.
type TraceSpan = obs.Span

// CacheStats are a cache's cumulative hit/miss/eviction counters (see
// Cluster.CacheStats).
type CacheStats = engine.CacheStats

// RecoveryMode selects the reaction to node failure during a query.
type RecoveryMode = engine.RecoveryMode

// Recovery modes, re-exported from the engine.
const (
	// RecoverFail aborts the query and reports the failure.
	RecoverFail = engine.RecoverFail
	// RecoverRestart terminates and restarts over the remaining nodes.
	RecoverRestart = engine.RecoverRestart
	// RecoverIncremental recomputes only the state lost with the failed
	// node (§V-D), with provenance tracking enabled.
	RecoverIncremental = engine.RecoverIncremental
)

// QueryOptions tunes one query execution.
type QueryOptions struct {
	// Node is the initiator index (default 0).
	Node int
	// Epoch pins the snapshot epoch; 0 means current.
	Epoch Epoch
	// Recovery selects the failure reaction (default RecoverRestart).
	Recovery RecoveryMode
	// Provenance forces provenance tracking even without incremental
	// recovery (to measure its overhead, §VI-E).
	Provenance bool
	// Timeout bounds the execution (default 5 minutes).
	Timeout time.Duration
	// Trace collects a span tree for the execution (Result.Trace):
	// planning, each fragment's scan passes, ship encode/decode, and the
	// final pipeline, with durations and row/byte counts.
	Trace bool

	// trace is the minted trace when the SQL path starts timing before
	// runPlan (covering parse/optimize); runPlan mints its own otherwise.
	trace *obs.Trace
	// sink receives result batches during execution for stream-eligible
	// plans — set by QueryBatches when nothing (view cache, provenance)
	// forces the collected path.
	sink engine.StreamSink
}

// Result is a completed query.
type Result struct {
	// Columns are the output column names (select aliases where given).
	Columns []string
	// Rows is the complete, duplicate-free answer set.
	Rows []tuple.Row
	// Epoch is the snapshot the query executed against.
	Epoch Epoch
	// Phases is 1 + the number of incremental recovery invocations.
	Phases uint32
	// Restarts counts full restarts performed.
	Restarts int
	// Stats aggregates per-node work counters.
	Stats engine.NodeStats
	// PerNode holds each node's counters keyed by node id.
	PerNode map[string]engine.NodeStats
	// Plan is the optimizer's explanation of the executed plan.
	Plan string
	// Cached reports that the result came from the materialized-view cache
	// (same query text at the same epoch; see Cluster.EnableQueryCache).
	Cached bool
	// TraceID and Trace carry the execution's span tree when
	// QueryOptions.Trace was set.
	TraceID string
	Trace   *TraceSpan
	// Streamed counts rows emitted through QueryBatches' callback during
	// execution; when positive the answer never existed whole at the
	// initiator.
	Streamed int64
	// StreamPeak is the high-water mark of result rows buffered at the
	// initiator while streaming (0 for collected executions).
	StreamPeak int

	// batch is the engine's columnar answer until an edge takes it:
	// QueryBatches emits it, QueryOpts and RunPlan materialize Rows.
	batch *tuple.Batch
}

// Query parses, optimizes, and executes a single-block SQL query with
// default options.
func (c *Cluster) Query(src string) (*Result, error) {
	return c.QueryOpts(src, QueryOptions{})
}

// QueryBatches executes a query and emits the answer through callbacks
// instead of returning it attached to the Result — the serving path for
// streamed results. start receives the query's metadata (columns, epoch,
// plan; no rows) exactly once before the first batch; emit receives the
// answer as tuple.Batch column vectors — no []tuple.Row is materialized
// at the initiator, whatever the plan, provenance mode or view-cache
// state.
//
// Plans whose final pipeline is compute/limit-only stream *during*
// execution: chunks reach emit as remote fragments deliver them, so the
// first batch arrives long before the query completes and the initiator
// never holds the whole answer (Result.Streamed counts the rows,
// Result.StreamPeak the buffering high-water mark). Everything else —
// ORDER BY, aggregates, provenance/incremental recovery (restarts may
// retract partial state), and view-cache-enabled clusters (the cache
// stores whole answers) — keeps the collect-then-emit contract: the
// complete, duplicate-free answer set exists at the initiator first and
// is emitted in one batch (the wire layer re-chunks it by encoded size).
// Emitted batches alias engine memory, must not be mutated, and are
// valid only until the callback returns.
func (c *Cluster) QueryBatches(src string, opts QueryOptions, start func(*Result) error, emit func(b *tuple.Batch) error) (*Result, error) {
	if !c.viewsUsable(opts) {
		return c.queryStreamed(src, opts, start, emit)
	}
	res, _, err := c.queryCollected(src, opts)
	if err != nil {
		return nil, err
	}
	return emitCollected(res, start, emit)
}

// viewsUsable mirrors viewLookup's gate without touching the cache's
// hit/miss counters: when it reports true, a query will consult (and
// possibly fill) the view cache, so QueryBatches must take the collected
// path — cached entries are whole answers.
func (c *Cluster) viewsUsable(opts QueryOptions) bool {
	c.mu.Lock()
	views := c.views
	c.mu.Unlock()
	return views != nil && !opts.Provenance && opts.Node >= 0 && opts.Node < len(c.engines)
}

// emitCollected hands a collected answer to the QueryBatches callbacks:
// metadata first, then the whole batch at once.
func emitCollected(res *Result, start func(*Result) error, emit func(b *tuple.Batch) error) (*Result, error) {
	meta := *res
	meta.batch = nil
	if err := start(&meta); err != nil {
		return nil, err
	}
	if res.batch.N > 0 {
		if err := emit(res.batch); err != nil {
			return nil, err
		}
	}
	return &meta, nil
}

// batchEmitSink adapts the QueryBatches callbacks to the engine's
// StreamSink: the start callback fires lazily before the first emission
// (the engine's drainer serializes calls, so no locking). meta is the
// pre-derived metadata start hands over; queryStreamed fills in the
// completion fields afterwards.
type batchEmitSink struct {
	meta    *Result
	start   func(*Result) error
	emit    func(b *tuple.Batch) error
	started bool
}

func (s *batchEmitSink) begin() error {
	if s.started {
		return nil
	}
	s.started = true
	return s.start(s.meta)
}

func (s *batchEmitSink) StreamCols(b *tuple.Batch) error {
	if b.N == 0 {
		return nil
	}
	if err := s.begin(); err != nil {
		return err
	}
	return s.emit(b)
}

// queryStreamed is QueryBatches' path without the view cache: parse and
// optimize up front so the start callback's metadata (columns, plan,
// epoch) exists before the engine runs, then attach a sink when the plan
// is stream-eligible. Ineligible plans come back collected and are
// emitted whole, then recycled.
func (c *Cluster) queryStreamed(src string, opts QueryOptions, start func(*Result) error, emit func(b *tuple.Batch) error) (*Result, error) {
	if opts.Node < 0 || opts.Node >= len(c.engines) {
		return nil, fmt.Errorf("orchestra: no node %d", opts.Node)
	}
	if opts.Trace && opts.trace == nil {
		opts.trace = obs.NewTrace(obs.NewTraceID(), "query", c.initiatorID(opts.Node))
	}
	planSpan := opts.trace.Begin("plan")
	q, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, info, err := c.Optimize(q)
	if err != nil {
		return nil, err
	}
	opts.trace.End(planSpan)
	opts.trace.Attach(nil, planSpan)
	cols := outputColumns(q, c)
	explain := optimizer.Explain(plan, info)
	var sink *batchEmitSink
	if engine.StreamEligible(plan, engine.Options{Provenance: opts.Provenance, Recovery: opts.Recovery}) {
		if opts.Epoch == 0 {
			// Pin the epoch now: start's metadata must name the snapshot
			// before the engine reports back.
			opts.Epoch = c.currentEpochAt(opts.Node)
		}
		meta := &Result{Columns: cols, Epoch: opts.Epoch, Plan: explain, PerNode: map[string]engine.NodeStats{}}
		if opts.trace != nil {
			meta.TraceID = opts.trace.ID.String()
		}
		sink = &batchEmitSink{meta: meta, start: start, emit: emit}
		opts.sink = sink
	}
	res, err := c.runPlan(plan, opts)
	if err != nil {
		return nil, err
	}
	res.Columns = cols
	res.Plan = explain
	if sink == nil {
		defer engine.RecycleResultBatch(res.batch)
		return emitCollected(res, start, emit)
	}
	// Streamed (possibly an empty answer): finish the handshake if no
	// chunk ever fired it, then fill the completion metadata into the
	// Result the start callback already holds.
	if err := sink.begin(); err != nil {
		return nil, err
	}
	*sink.meta = *res
	return sink.meta, nil
}

// QueryOpts parses, optimizes, and executes a single-block SQL query.
func (c *Cluster) QueryOpts(src string, opts QueryOptions) (*Result, error) {
	res, shared, err := c.queryCollected(src, opts)
	if err != nil {
		return nil, err
	}
	res.fillRows(!shared)
	return res, nil
}

// queryCollected runs a query to a collected answer (res.batch), through
// the view cache when it is enabled. shared reports that the cache owns
// the batch — a hit, or a fresh answer just stored — so it must never be
// recycled.
func (c *Cluster) queryCollected(src string, opts QueryOptions) (res *Result, shared bool, err error) {
	hit, key, views := c.viewLookup(src, opts)
	if views == nil {
		res, err := c.queryUncached(src, opts)
		return res, false, err
	}
	if hit != nil {
		return hit, true, nil
	}
	opts.Epoch = key.epoch // pin the epoch the cache entry will be keyed by
	res, err = c.queryUncached(src, opts)
	if err != nil {
		return nil, false, err
	}
	views.put(&viewEntry{key: key, batch: res.batch, cols: res.Columns, plan: res.Plan})
	return res, true, nil
}

func (c *Cluster) queryUncached(src string, opts QueryOptions) (*Result, error) {
	if opts.Trace && opts.trace == nil {
		opts.trace = obs.NewTrace(obs.NewTraceID(), "query", c.initiatorID(opts.Node))
	}
	planSpan := opts.trace.Begin("plan")
	q, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, info, err := c.Optimize(q)
	if err != nil {
		return nil, err
	}
	opts.trace.End(planSpan)
	opts.trace.Attach(nil, planSpan)
	res, err := c.runPlan(plan, opts)
	if err != nil {
		return nil, err
	}
	res.Columns = outputColumns(q, c)
	res.Plan = optimizer.Explain(plan, info)
	return res, nil
}

// fillRows materializes the columnar answer into Rows — the embedded
// API's form — and drops the batch, returning it to the engine's arena
// when recycle is set.
func (r *Result) fillRows(recycle bool) {
	if r.batch == nil {
		return
	}
	r.Rows = r.batch.Rows()
	if recycle {
		engine.RecycleResultBatch(r.batch)
	}
	r.batch = nil
}

// initiatorID names a node for trace spans ("" when out of range — the
// range error surfaces in RunPlan).
func (c *Cluster) initiatorID(node int) string {
	if node < 0 || node >= len(c.engines) {
		return ""
	}
	return c.NodeID(node)
}

// Optimize runs the Volcano-style optimizer against the cluster's catalog.
func (c *Cluster) Optimize(q *sql.Query) (*engine.Plan, *optimizer.Info, error) {
	env := optimizer.Environment{Nodes: c.liveNodes()}
	return optimizer.Build(q, c.catalog(), env)
}

// liveNodes counts nodes in the current routing table.
func (c *Cluster) liveNodes() int {
	return c.local.Node(0).Table().Size()
}

// RunPlan executes a (finalized or finalizable) engine plan directly —
// the escape hatch used by benchmarks that hand-build plans.
func (c *Cluster) RunPlan(plan *engine.Plan, opts QueryOptions) (*Result, error) {
	res, err := c.runPlan(plan, opts)
	if err != nil {
		return nil, err
	}
	res.fillRows(true)
	return res, nil
}

// runPlan is RunPlan leaving the answer in res.batch.
func (c *Cluster) runPlan(plan *engine.Plan, opts QueryOptions) (*Result, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Minute
	}
	if opts.Node < 0 || opts.Node >= len(c.engines) {
		return nil, fmt.Errorf("orchestra: no node %d", opts.Node)
	}
	tr := opts.trace
	if tr == nil && opts.Trace {
		tr = obs.NewTrace(obs.NewTraceID(), "query", c.initiatorID(opts.Node))
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	eres, err := c.engines[opts.Node].Run(ctx, plan, engine.Options{
		Provenance: opts.Provenance,
		Recovery:   opts.Recovery,
		Epoch:      opts.Epoch,
		Trace:      tr,
		Sink:       opts.sink,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		batch:      eres.Batch,
		Epoch:      eres.Epoch,
		Phases:     eres.Phases,
		Restarts:   eres.Restarts,
		Stats:      eres.TotalStats(),
		Streamed:   eres.Streamed,
		StreamPeak: eres.StreamPeak,
		PerNode:    make(map[string]engine.NodeStats, len(eres.Stats)),
	}
	for id, st := range eres.Stats {
		res.PerNode[string(id)] = st
	}
	if tr != nil {
		tr.Finish()
		res.TraceID = tr.ID.String()
		res.Trace = tr.Root()
	}
	return res, nil
}

// outputColumns derives display names for the result columns.
func outputColumns(q *sql.Query, c *Cluster) []string {
	return q.OutputColumns(func(table string) ([]string, bool) {
		s, ok := c.Schema(table)
		if !ok {
			return nil, false
		}
		return columnNames(s), true
	})
}

// columnNames lists a schema's column names in order.
func columnNames(s *tuple.Schema) []string {
	names := make([]string, len(s.Columns))
	for i, col := range s.Columns {
		names[i] = col.Name
	}
	return names
}
