package server

import (
	"context"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/tuple"
)

// Backend is the deployment the server fronts: an embedded orchestra
// Cluster (adapter in the root package) or a real TCP cluster.Node
// (NodeBackend below).
type Backend interface {
	// Create registers a relation and returns the current epoch.
	Create(ctx context.Context, req *CreateRequest) (tuple.Epoch, error)
	// Publish applies one batch and returns the new epoch.
	Publish(ctx context.Context, req *PublishRequest) (tuple.Epoch, error)
	// QueryStream executes one SQL query against a snapshot, emitting
	// results through out, and returns the terminal metadata. On error,
	// frames already emitted are followed by an error End frame — partial
	// results are explicitly invalidated for the client.
	QueryStream(ctx context.Context, req *QueryRequest, out ResultStream) (*QueryTail, error)
	// Catalog describes one relation (or all known ones when rel == "").
	Catalog(ctx context.Context, rel string) (*SchemaResponse, error)
	// Epoch is the backend's current view of the global epoch.
	Epoch() tuple.Epoch
	// Info identifies the serving node.
	Info() BackendInfo
}

// BackendInfo identifies the deployment behind a server.
type BackendInfo struct {
	NodeID  string
	Members int
	// Peers lists the deployment's advertised client endpoints (for the
	// health/status member list), when the backend knows them.
	Peers []string
}

// ResultStream receives a query's result incrementally: the column shape
// once, then zero or more columnar batches. The server's implementation
// re-chunks batches to the wire's size bounds — encoding frames straight
// from the column vectors — and applies flow-control backpressure, so
// backends may emit batches of any size, as soon as they are produced.
// Batches are borrowed: the backend may recycle them after the call
// returns, so implementations must not retain the batch or its vectors.
type ResultStream interface {
	// Columns announces the output column names; called exactly once,
	// before any batch.
	Columns(cols []string) error
	// Batches emits a columnar batch of result rows.
	Batches(b *tuple.Batch) error
}

// QueryTail is the terminal metadata of a streamed query. The JSON tags
// are its wire form inside a StreamEnd frame.
type QueryTail struct {
	Epoch    uint64 `json:"epoch,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Phases   uint32 `json:"phases,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	Plan     string `json:"plan,omitempty"`
	// TraceID/Trace carry the query's span tree when tracing was
	// requested.
	TraceID string    `json:"trace_id,omitempty"`
	Trace   *obs.Span `json:"trace,omitempty"`
	// Streamed counts rows that were emitted to the stream *during*
	// execution (zero on the collect-then-emit path). Nonzero means the
	// query ran on the streaming pushdown path end to end.
	Streamed int64 `json:"streamed,omitempty"`
}

// CacheStatsProvider is optionally implemented by backends that expose
// cache counters (the view cache, the decoded-page LRU); the status op
// reports them when present.
type CacheStatsProvider interface {
	CacheStats() map[string]engine.CacheStats
}

// DurabilityStatsProvider is optionally implemented by backends whose
// local store is durable (WAL + snapshots); the status op reports the
// store's recovery/fsync counters when present and ok is true.
type DurabilityStatsProvider interface {
	DurabilityStats() (kvstore.DurabilityStats, bool)
}

// ReplStatsProvider is optionally implemented by backends that can
// report replica-repair health (WAL-shipping catch-up, anti-entropy,
// per-peer lag); the status op and /metrics report it when present and
// ok is true.
type ReplStatsProvider interface {
	ReplStats() (cluster.ReplStats, bool)
}

// RecoveryMode maps a wire recovery-mode name to the engine constant.
func RecoveryMode(name string) (engine.RecoveryMode, error) {
	switch name {
	case "", "restart":
		return engine.RecoverRestart, nil
	case "fail":
		return engine.RecoverFail, nil
	case "incremental":
		return engine.RecoverIncremental, nil
	}
	return 0, Errorf(CodeBadRequest, "unknown recovery mode %q", name)
}
