package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"orchestra/internal/keyspace"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// flushRows is the destination-batch size: tuples are accumulated per
// destination and shipped in compressed blocks (§V-A).
const flushRows = 1024

// --- batch wire codec ---
//
// Every exchange block — rehash and ship alike — is a head followed by a
// columnar, compressed batch body (tuple batch format). The head carries
// the execution phase, a provenance flag, and, when provenance is on, a
// dictionary-coded provenance column: distinct provenance sets are listed
// once, each row referencing its set by index. This keeps the provenance
// overhead to roughly one byte per tuple, which is how the paper achieves
// its ≤2% traffic overhead for recovery support. A ship block whose flag
// reads headFailed carries, instead of rows, the error of a fragment that
// could not ship its output; it fails the query.

const headFailed = 2

// appendFailedHead appends a ship block reporting a fragment's failure.
func appendFailedHead(dst []byte, phase uint32, err error) []byte {
	dst = binary.BigEndian.AppendUint32(dst, phase)
	dst = append(dst, headFailed)
	dst = binary.AppendUvarint(dst, uint64(len(err.Error())))
	return append(dst, err.Error()...)
}

// appendBatchHead appends a block head: phase, provenance flag and, with
// provenance, the dictionary-coded column over provs (one set per row).
func appendBatchHead(dst []byte, phase uint32, withProv bool, provs []Prov) []byte {
	dst = binary.BigEndian.AppendUint32(dst, phase)
	if !withProv {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dict := make(map[string]int)
	var keys []string
	idxs := make([]int, len(provs))
	for i, p := range provs {
		k := p.Key()
		id, ok := dict[k]
		if !ok {
			id = len(keys)
			dict[k] = id
			keys = append(keys, k)
		}
		idxs[i] = id
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(idxs)))
	for _, id := range idxs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// decodeBatchHead reverses appendBatchHead and returns the batch body
// that follows the head. provs is nil exactly when the block carries no
// provenance column; rows referencing one dictionary entry share its
// set, so a caller that mutates a row's set must clone it first.
func decodeBatchHead(data []byte) (phase uint32, provs []Prov, body []byte, err error) {
	if len(data) < 5 {
		return 0, nil, nil, errors.New("engine: short batch")
	}
	phase = binary.BigEndian.Uint32(data)
	off := 5
	switch data[4] {
	case 0:
		return phase, nil, data[off:], nil
	case headFailed:
		l, n := binary.Uvarint(data[off:])
		if n <= 0 || l > uint64(len(data)-off-n) {
			return 0, nil, nil, errors.New("engine: bad failure report")
		}
		return 0, nil, nil, fmt.Errorf("engine: fragment failed: %s", data[off+n:off+n+int(l)])
	case 1:
	default:
		return 0, nil, nil, fmt.Errorf("engine: bad block flag %d", data[4])
	}
	nDict, n := binary.Uvarint(data[off:])
	if n <= 0 || nDict > 1<<20 {
		return 0, nil, nil, errors.New("engine: bad prov dict")
	}
	off += n
	dict := make([]Prov, nDict)
	for i := range dict {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 || l > uint64(len(data)-off-n) {
			return 0, nil, nil, errors.New("engine: bad prov entry")
		}
		off += n
		dict[i] = ProvFromKey(string(data[off : off+int(l)]))
		off += int(l)
	}
	nIdx, n := binary.Uvarint(data[off:])
	if n <= 0 || nIdx > 1<<28 || nIdx > uint64(len(data)-off) {
		return 0, nil, nil, errors.New("engine: bad prov index count")
	}
	off += n
	provs = make([]Prov, nIdx)
	for i := range provs {
		id, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, nil, nil, errors.New("engine: bad prov index")
		}
		if id >= nDict {
			return 0, nil, nil, errors.New("engine: prov index out of range")
		}
		provs[i] = dict[id]
		off += n
	}
	return phase, provs, data[off:], nil
}

// encodeTupBatch encodes row-form tuples as one exchange block (the
// rehash exchange's sending form).
func encodeTupBatch(ts []Tup, phase uint32, withProv bool) ([]byte, error) {
	rows := make([]tuple.Row, len(ts))
	var provs []Prov
	if withProv {
		provs = make([]Prov, len(ts))
	}
	for i, t := range ts {
		rows[i] = t.Row
		if withProv {
			provs[i] = t.Prov
		}
	}
	return tuple.AppendBatch(appendBatchHead(nil, phase, withProv, provs), rows, shipCompressMin)
}

// decodeTupBatch decodes an exchange block into tuples, each with its own
// copy of its provenance set (the rehash consumer stamps sets in place).
func decodeTupBatch(data []byte) ([]Tup, uint32, error) {
	phase, provs, body, err := decodeBatchHead(data)
	if err != nil {
		return nil, 0, err
	}
	rows, err := tuple.DecodeBatch(body)
	if err != nil {
		return nil, 0, err
	}
	if provs != nil && len(provs) != len(rows) {
		return nil, 0, errors.New("engine: prov index count mismatch")
	}
	ts := make([]Tup, len(rows))
	for i, r := range rows {
		ts[i] = Tup{Row: r, Phase: phase}
		if provs != nil {
			ts[i].Prov = provs[i].Clone()
		}
	}
	return ts, phase, nil
}

// decodeShipBatch decodes a ship block onto b (appending, columnar) and
// returns its phase and provenance column (nil without provenance) —
// the initiator's decode. On error b keeps its prior rows.
func decodeShipBatch(data []byte, b *tuple.Batch) (uint32, []Prov, error) {
	phase, provs, body, err := decodeBatchHead(data)
	if err != nil {
		return 0, nil, err
	}
	start := b.N
	n, err := tuple.DecodeBatchInto(body, b)
	if err != nil {
		return 0, nil, err
	}
	if provs != nil && len(provs) != n {
		b.Truncate(start)
		return 0, nil, errors.New("engine: prov index count mismatch")
	}
	return phase, provs, nil
}

// --- exchange producer (rehash) ---

// cachedTup is a produced tuple retained for replay, with its routing hash
// and the node it was last sent to. Replay resends exactly the entries
// whose last destination has failed: entries routed by the recovery table
// (a concurrent push after the table swap) must not be sent twice.
type cachedTup struct {
	t      Tup
	h      keyspace.Key
	sentTo ring.NodeID
}

// exchProducer is the sending half of a rehash: it partitions its input by
// hash of the key columns, batches per destination, and retains an output
// cache so that tuples sent to a node that later fails can be recreated
// without redoing the upstream work (§V-D stage 4).
type exchProducer struct {
	ex     *executor
	exchID int
	keys   []int

	mu      sync.Mutex
	pending map[ring.NodeID][]Tup
	cache   []cachedTup
}

func newExchProducer(ex *executor, exchID int, keys []int) *exchProducer {
	return &exchProducer{
		ex:      ex,
		exchID:  exchID,
		keys:    keys,
		pending: make(map[ring.NodeID][]Tup),
	}
}

func (p *exchProducer) routeHash(row tuple.Row) keyspace.Key {
	return keyspace.Hash(tuple.EncodeKey(row, p.keys))
}

func (p *exchProducer) push(ts []Tup) {
	var flushes []flushUnit
	p.mu.Lock()
	// The routing table must be read inside the cache critical section:
	// replay() holds the same lock after the recovery table is installed,
	// so every cache entry is either scanned by replay or routed by the
	// recovery table — never routed to a dead node and missed by replay.
	table := p.ex.currentTable()
	for _, t := range ts {
		h := p.routeHash(t.Row)
		dest := table.Owner(h)
		if p.ex.opts.Provenance {
			p.cache = append(p.cache, cachedTup{t: t, h: h, sentTo: dest})
		}
		p.pending[dest] = append(p.pending[dest], t)
		if len(p.pending[dest]) >= flushRows {
			flushes = append(flushes, flushUnit{dest: dest, ts: p.pending[dest]})
			p.pending[dest] = nil
		}
	}
	p.mu.Unlock()
	for _, f := range flushes {
		p.ex.sendExchBatch(p.exchID, f.dest, f.ts)
	}
}

type flushUnit struct {
	dest ring.NodeID
	ts   []Tup
}

// eos flushes all pending batches and broadcasts end-of-stream for the
// current phase to every live node (§V-B: the rehash operator cannot
// complete until its data is fully delivered; per-link FIFO ordering plus
// the trailing EOS marker provide that guarantee).
func (p *exchProducer) eos(phase uint32) {
	p.mu.Lock()
	flushes := make([]flushUnit, 0, len(p.pending))
	for dest, ts := range p.pending {
		if len(ts) > 0 {
			flushes = append(flushes, flushUnit{dest: dest, ts: ts})
		}
	}
	p.pending = make(map[ring.NodeID][]Tup)
	p.mu.Unlock()
	for _, f := range flushes {
		p.ex.sendExchBatch(p.exchID, f.dest, f.ts)
	}
	p.ex.broadcastExchEOS(p.exchID, phase)
}

// replay re-sends cached clean tuples whose last destination has since
// failed, now routed by the recovery table and tagged with the new phase.
// Tainted cache entries are dropped: the upstream restart will regenerate
// them. Entries already routed by the recovery table (by a push concurrent
// with the table swap) are left alone — resending them would duplicate.
func (p *exchProducer) replay(failed Prov, newTable *ring.Table, newPhase uint32) {
	p.mu.Lock()
	kept := p.cache[:0]
	byDest := make(map[ring.NodeID][]Tup)
	for _, c := range p.cache {
		if c.t.Prov.Intersects(failed) {
			continue
		}
		if !newTable.Contains(c.sentTo) {
			c.sentTo = newTable.Owner(c.h)
			t := c.t
			t.Phase = newPhase
			byDest[c.sentTo] = append(byDest[c.sentTo], t)
		}
		kept = append(kept, c)
	}
	p.cache = kept
	p.mu.Unlock()

	for dest, ts := range byDest {
		p.ex.sendExchBatch(p.exchID, dest, ts)
	}
}

// --- exchange consumer ---

// exchConsumer is the receiving half of a rehash on one node: it filters
// tainted tuples, stamps the local node into each tuple's provenance, and
// tracks per-phase end-of-stream from every live producer.
type exchConsumer struct {
	ex  *executor
	out sink

	mu         sync.Mutex
	eosFrom    map[uint32]map[ring.NodeID]bool
	firedPhase map[uint32]bool
}

func newExchConsumer(ex *executor, out sink) *exchConsumer {
	return &exchConsumer{
		ex:         ex,
		out:        out,
		eosFrom:    make(map[uint32]map[ring.NodeID]bool),
		firedPhase: make(map[uint32]bool),
	}
}

// receive processes an incoming batch (possibly from an earlier phase —
// clean tuples from live nodes remain valid; tainted ones are dropped).
func (c *exchConsumer) receive(ts []Tup) {
	ts = c.ex.filterAndStamp(ts)
	if len(ts) > 0 {
		c.out.push(ts)
	}
}

// eosFromNode records a producer's end-of-stream for a phase and fires
// downstream EOS when every live node has finished the current phase.
func (c *exchConsumer) eosFromNode(from ring.NodeID, phase uint32) {
	c.mu.Lock()
	m := c.eosFrom[phase]
	if m == nil {
		m = make(map[ring.NodeID]bool)
		c.eosFrom[phase] = m
	}
	m[from] = true
	fire, donePhase := c.completeLocked()
	c.mu.Unlock()
	if fire {
		c.out.eos(donePhase)
	}
}

// recheck re-evaluates completion (called after recovery changes the live
// set or phase).
func (c *exchConsumer) recheck() {
	c.mu.Lock()
	fire, donePhase := c.completeLocked()
	c.mu.Unlock()
	if fire {
		c.out.eos(donePhase)
	}
}

func (c *exchConsumer) completeLocked() (bool, uint32) {
	phase := c.ex.phaseNow()
	if c.firedPhase[phase] {
		return false, phase
	}
	m := c.eosFrom[phase]
	for _, id := range c.ex.liveMembers() {
		if !m[id] {
			return false, phase
		}
	}
	c.firedPhase[phase] = true
	return true, phase
}

// --- ship ---

// shipProducer sends final fragment output to the query initiator
// (Table I, ship). Everything it sends is columnar: operator batches
// append into one pending batch, and a row push — a stateful operator,
// the provenance scan, the replica fallback — is appended to that batch
// once, here at the boundary. Provenance rides beside the batch as a
// side vector (nil without provenance). The pending batch ships at
// flushRows rows — at once on the initiator's own node, where shipping
// is a hand-off — and top-K mode holds the whole fragment output for eos.
type shipProducer struct {
	ex *executor

	mu      sync.Mutex
	pending *tuple.Batch // rows accumulated toward the next shipment
	prov    []Prov       // pending's provenance column; nil without provenance
	spare   *tuple.Batch // recycled after a send to keep vector capacity
	failed  bool         // output could not be shipped; the initiator was told
}

// shipment is one block cut off the producer for sending.
type shipment struct {
	b    *tuple.Batch
	prov []Prov
}

func (s *shipProducer) push(ts []Tup) {
	s.mu.Lock()
	var out []shipment
	var err error
	for _, t := range ts {
		if s.failed {
			break
		}
		if !rowFits(s.pending, t.Row) {
			// A batch column holds one type; the plan fixes the types, so
			// a row of another shape can only open a new batch.
			if out, err = s.reshapeLocked(out); err != nil {
				break
			}
			s.pending.ResetTypes(rowTypes(t.Row))
			if !rowFits(s.pending, t.Row) {
				s.failed = true
				err = errors.New("engine: ship: row holds an invalid value")
				break
			}
		}
		if err = s.pending.AppendRow(t.Row); err != nil {
			s.failed = true
			break
		}
		if s.ex.opts.Provenance {
			s.prov = append(s.prov, t.Prov)
		}
	}
	out = s.dueLocked(out)
	s.mu.Unlock()
	s.send(out)
	if err != nil {
		s.ex.sendShipFailure(err)
	}
}

// pushCols receives a columnar batch from the operator pipeline (never
// under provenance: the scan emits rows then). The batch is borrowed
// (pushCols contract): on the initiator's own node it goes straight to
// the ship consumer, which copies it into its accumulator; otherwise it
// is copied into the pending batch.
func (s *shipProducer) pushCols(cb *colBatch) {
	if s.ex.mode != shipTopK && s.ex.initiator == s.ex.self() {
		s.ex.sendShipCols(&cb.cols, nil)
		return
	}
	s.mu.Lock()
	var out []shipment
	var err error
	if !s.failed && s.pending.AppendBatchInto(&cb.cols) != nil {
		if out, err = s.reshapeLocked(out); err == nil {
			s.pending.ResetTypes(nil) // an untyped empty batch adopts any shape
			if err = s.pending.AppendBatchInto(&cb.cols); err != nil {
				s.failed = true
			}
		}
	}
	out = s.dueLocked(out)
	s.mu.Unlock()
	s.send(out)
	if err != nil {
		s.ex.sendShipFailure(err)
	}
}

// reshapeLocked cuts the pending batch so that one of another shape can
// start. Top-K mode holds the fragment's output as one run that is
// sorted at eos, and the initiator merges each fragment's run as sorted:
// a second shape there would break that run, so it fails the fragment.
func (s *shipProducer) reshapeLocked(out []shipment) ([]shipment, error) {
	if s.ex.mode == shipTopK && s.pending.N > 0 {
		s.failed = true
		return out, errors.New("engine: top-K fragment output changed shape")
	}
	return s.cutLocked(out), nil
}

// cutLocked moves the pending rows, if any, onto out as a shipment and
// starts a fresh pending batch.
func (s *shipProducer) cutLocked(out []shipment) []shipment {
	if s.pending.N == 0 {
		return out
	}
	out = append(out, shipment{b: s.pending, prov: s.prov})
	s.pending, s.spare, s.prov = s.spare, nil, nil
	if s.pending == nil {
		s.pending = &tuple.Batch{}
	}
	return out
}

// dueLocked cuts the pending batch when it is due to ship.
func (s *shipProducer) dueLocked(out []shipment) []shipment {
	if s.ex.mode != shipTopK && (s.pending.N >= flushRows || s.ex.initiator == s.ex.self()) {
		return s.cutLocked(out)
	}
	return out
}

// send ships cut blocks and keeps one emptied batch as the next spare.
func (s *shipProducer) send(out []shipment) {
	for _, sh := range out {
		s.ex.sendShipCols(sh.b, sh.prov)
		sh.b.Truncate(0)
		s.mu.Lock()
		if s.spare == nil {
			s.spare = sh.b
		}
		s.mu.Unlock()
	}
}

func (s *shipProducer) eos(phase uint32) {
	s.mu.Lock()
	var out []shipment
	if !s.failed {
		out = s.cutLocked(nil)
	}
	s.mu.Unlock()
	if s.ex.mode == shipTopK {
		for _, sh := range out {
			s.shipTopK(sh.b)
		}
	} else {
		s.send(out)
	}
	s.ex.sendShipEOS(phase)
}

// shipTopK is the fragment half of the top-K pushdown: sort the buffered
// fragment output with the plan's compiled comparators, truncate to the
// merged row budget K, and ship only that — at most K rows per fragment
// reach the initiator. Chunked shipments of one sorted run stay ordered
// end to end (per-link FIFO), so the initiator's per-source run is
// sorted by construction.
func (s *shipProducer) shipTopK(b *tuple.Batch) {
	keys, k := topKParams(s.ex.plan)
	sortCols(b, keys)
	if b.N > k {
		b.Truncate(k)
	}
	var span tuple.Batch
	for lo := 0; lo < b.N; lo += flushRows {
		b.Slice(lo, min(lo+flushRows, b.N), &span)
		s.ex.sendShipCols(&span, nil)
	}
}

// rowFits reports whether row's values are valid and match the batch's
// column types.
func rowFits(b *tuple.Batch, row tuple.Row) bool {
	if len(row) != len(b.Cols) {
		return false
	}
	for i := range row {
		if row[i].T != b.Cols[i].T || !row[i].IsValid() {
			return false
		}
	}
	return true
}

func rowTypes(row tuple.Row) []tuple.Type {
	ts := make([]tuple.Type, len(row))
	for i, v := range row {
		ts[i] = v.T
	}
	return ts
}

// dropTainted removes the rows whose provenance intersects failed,
// compacting the batch and its provenance column together, and returns
// the surviving column.
func dropTainted(b *tuple.Batch, provs []Prov, failed Prov) []Prov {
	if failed.Count() == 0 {
		return provs
	}
	sel := NewBitset(b.N)
	kept := provs[:0]
	for i, p := range provs {
		if !p.Intersects(failed) {
			sel.Set(i)
			kept = append(kept, p)
		}
	}
	if len(kept) < b.N {
		b.CompactWords(sel)
	}
	clear(provs[len(kept):])
	return kept
}

// shipConsumer collects results at the initiator, purging tainted rows on
// recovery. It signals each phase whose EOS wave completes on completeCh;
// the initiator's run loop accepts a completion only if that phase is still
// current — a completion that races with a failure detection is stale and
// ignored (§V-D: phases differentiate old in-flight data from recomputed
// results).
type shipConsumer struct {
	ex *executor

	mu         sync.Mutex
	cols       *tuple.Batch // the collected answer
	prov       []Prov       // cols' provenance column (provenance mode only)
	limit      int          // limit-only final pipeline: stop at N rows (-1: none)
	sealed     bool         // accepted completion: drop late arrivals
	eosFrom    map[uint32]map[ring.NodeID]bool
	statsBy    map[ring.NodeID]NodeStats
	spanBy     map[ring.NodeID]*obs.Span // remote fragment traces (last report wins)
	firedPhase map[uint32]bool
	completeCh chan uint32
	failed     chan error // the first failure (sink error, bad shipment) for the run loop

	// Top-K pushdown (shipTopK): one sorted run per source node, kept
	// separate for the K-way merge at seal.
	runs map[ring.NodeID]*tuple.Batch

	// Partial-agg pushdown (shipAggMerge): arriving partial rows fold
	// straight into the merge accumulator — initiator memory is
	// O(groups), not O(shipped partials).
	agg        *finalAggAcc
	aggScratch tuple.Row

	// Streamed emission (shipStream with a sink): receive never blocks —
	// it appends as before and nudges the drainer goroutine, which swaps
	// the accumulator out and emits to the sink (possibly blocking on
	// wire credit there, never on a transport delivery loop).
	sink      StreamSink
	streamFin *streamFinalState
	notify    chan struct{}
	stopDrain chan struct{}
	drainDone chan struct{}
	stopOnce  sync.Once
	streamed  atomic.Int64
	peak      int // high-water mark of rows buffered while streaming
}

func newShipConsumer(ex *executor) *shipConsumer {
	return &shipConsumer{
		ex:         ex,
		cols:       getResultBatch(),
		limit:      -1,
		eosFrom:    make(map[uint32]map[ring.NodeID]bool),
		statsBy:    make(map[ring.NodeID]NodeStats),
		firedPhase: make(map[uint32]bool),
		completeCh: make(chan uint32, 16),
		failed:     make(chan error, 1),
		runs:       make(map[ring.NodeID]*tuple.Batch),
	}
}

// fail hands a failure to the run loop (the first one wins) and stops
// in-flight local work.
func (s *shipConsumer) fail(err error) {
	select {
	case s.failed <- err:
	default:
	}
	s.ex.aborted.Store(true)
}

// startStream arms streamed emission: subsequent arrivals wake a drainer
// goroutine that hands accumulated batches to sink during execution.
// Called once, before execution starts.
func (s *shipConsumer) startStream(sink StreamSink, final []FinalOp) {
	s.sink = sink
	s.streamFin = newStreamFinalState(final)
	s.notify = make(chan struct{}, 1)
	s.stopDrain = make(chan struct{})
	s.drainDone = make(chan struct{})
	go s.drainLoop()
}

// stopStreaming seals the consumer and joins the drainer (which performs
// one final drain of everything accumulated before the seal). Idempotent;
// a no-op when streaming was never armed.
func (s *shipConsumer) stopStreaming() {
	if s.sink == nil {
		return
	}
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.sealed = true
		s.mu.Unlock()
		close(s.stopDrain)
		<-s.drainDone
	})
}

func (s *shipConsumer) notifyDrainLocked() {
	if s.sink == nil {
		return
	}
	if s.cols.N > s.peak {
		s.peak = s.cols.N
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// drainLoop is the initiator-side drainer: it swaps the accumulated
// batch out under the lock (replacing it with a fresh arena batch) and
// emits it through the sink. Emission may block on the consumer (wire
// credit); receive never does. Exits on a sink error (handing it to the
// run loop) or after the final drain once stopStreaming closed stopDrain.
func (s *shipConsumer) drainLoop() {
	defer close(s.drainDone)
	for {
		stopping := false
		select {
		case <-s.notify:
			select {
			case <-s.stopDrain:
				stopping = true
			default:
			}
		case <-s.stopDrain:
			stopping = true
		}
		s.mu.Lock()
		var b *tuple.Batch
		if s.cols.N > 0 {
			b = s.cols
			s.cols = getResultBatch()
		}
		s.mu.Unlock()
		if b != nil {
			if err := s.emitChunk(b); err != nil {
				s.fail(err)
				return
			}
		}
		if stopping {
			return
		}
	}
}

// emitChunk pushes one drained batch through the streaming final
// pipeline and into the sink, then recycles it.
func (s *shipConsumer) emitChunk(b *tuple.Batch) error {
	defer RecycleResultBatch(b)
	out, err := s.streamFin.apply(b)
	if err != nil || out.N == 0 {
		return err
	}
	if err := s.sink.StreamCols(out); err != nil {
		return err
	}
	s.streamed.Add(int64(out.N))
	return nil
}

// limitReachedLocked reports whether a pushed-down limit is satisfied:
// with a limit-only final pipeline any N collected rows are a complete
// answer (the collected set is duplicate-free by the scan contract), so
// further shipments can be dropped and the query completed early.
func (s *shipConsumer) limitReachedLocked() bool {
	return s.limit >= 0 && s.cols.N >= s.limit
}

// checkLimitLocked fires an early completion when the pushed-down limit
// has just been satisfied. firedPhase keeps it single-shot per phase; the
// later EOS wave for the same phase is then a no-op.
func (s *shipConsumer) checkLimitLocked() {
	if !s.limitReachedLocked() {
		return
	}
	phase := s.ex.phaseNow()
	if s.firedPhase[phase] {
		return
	}
	s.firedPhase[phase] = true
	select {
	case s.completeCh <- phase:
	default:
	}
}

// receiveCols folds one shipment into the accumulator — one bulk copy
// per column vector, no per-row boxing. b is borrowed and may be
// compacted in place (tainted rows are dropped on arrival); provs is its
// provenance column. In top-K mode the rows append onto from's sorted
// run instead (chunks of one run arrive in order — per-link FIFO — so
// the run stays sorted); in partial-agg mode they fold straight into the
// merge accumulator.
func (s *shipConsumer) receiveCols(from ring.NodeID, b *tuple.Batch, provs []Prov) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ex.opts.Provenance {
		if len(provs) != b.N {
			s.fail(fmt.Errorf("engine: shipment of %d rows carries %d provenance sets", b.N, len(provs)))
			return
		}
		// Filter under s.mu: a recovery marks the failed set before it
		// purges, so either the purge sees these rows or the filter sees
		// the failure — tainted rows never slip in between.
		provs = dropTainted(b, provs, s.ex.failedProv())
	}
	if b.N == 0 || s.sealed || s.limitReachedLocked() {
		return
	}
	switch s.ex.mode {
	case shipTopK:
		run := s.runs[from]
		if run == nil {
			run = getResultBatch()
			s.runs[from] = run
		}
		if err := run.AppendBatchInto(b); err != nil {
			s.fail(fmt.Errorf("engine: shipment from %s: %w", from, err))
		}
	case shipAggMerge:
		for i := 0; i < b.N; i++ {
			s.aggScratch = b.Row(i, s.aggScratch)
			s.agg.add(s.aggScratch)
		}
	default:
		if err := s.cols.AppendBatchInto(b); err != nil {
			s.fail(fmt.Errorf("engine: shipment from %s: %w", from, err))
			return
		}
		s.prov = append(s.prov, provs...)
		s.checkLimitLocked()
		s.notifyDrainLocked()
	}
}

// receiveWire handles an inbound ship payload (after the query-ID
// header). The block decodes into a pooled scratch batch outside the
// consumer lock — decode (including flate decompression) of concurrent
// fan-in from many nodes must not serialize on s.mu — and then folds in
// with one locked vector-wise append.
func (s *shipConsumer) receiveWire(from ring.NodeID, rest []byte) error {
	if tr := s.ex.trace; tr != nil {
		t0 := tr.SinceUs()
		defer func() {
			s.ex.shipDecUs.Add(tr.SinceUs() - t0)
			s.ex.shipDecBatches.Add(1)
			s.ex.shipDecBytes.Add(int64(len(rest)))
		}()
	}
	scratch := getResultBatch()
	defer RecycleResultBatch(scratch)
	_, provs, err := decodeShipBatch(rest, scratch)
	if err != nil {
		// An undecodable block or a failure report leaves a gap in the
		// answer: fail the query rather than return it incomplete.
		err = fmt.Errorf("engine: shipment from %s: %w", from, err)
		s.fail(err)
		return err
	}
	s.receiveCols(from, scratch, provs)
	return nil
}

func (s *shipConsumer) eosFromNode(from ring.NodeID, phase uint32, st NodeStats, span *obs.Span) {
	s.mu.Lock()
	m := s.eosFrom[phase]
	if m == nil {
		m = make(map[ring.NodeID]bool)
		s.eosFrom[phase] = m
	}
	m[from] = true
	s.statsBy[from] = st
	if span != nil {
		if s.spanBy == nil {
			s.spanBy = make(map[ring.NodeID]*obs.Span)
		}
		s.spanBy[from] = span
	}
	s.completeLocked()
	s.mu.Unlock()
}

// remoteSpans returns the last-reported fragment span of each remote
// node, for attachment under the trace root at completion.
func (s *shipConsumer) remoteSpans() []*obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*obs.Span, 0, len(s.spanBy))
	for _, sp := range s.spanBy {
		out = append(out, sp)
	}
	return out
}

// purge drops tainted collected rows (recovery at the initiator).
func (s *shipConsumer) purge(failed Prov) {
	if !s.ex.opts.Provenance {
		return
	}
	s.mu.Lock()
	s.prov = dropTainted(s.cols, s.prov, failed)
	s.mu.Unlock()
}

func (s *shipConsumer) recheck() {
	s.mu.Lock()
	s.completeLocked()
	s.mu.Unlock()
}

func (s *shipConsumer) completeLocked() {
	phase := s.ex.phaseNow()
	if s.firedPhase[phase] {
		return
	}
	m := s.eosFrom[phase]
	for _, id := range s.ex.liveMembers() {
		if !m[id] {
			return
		}
	}
	s.firedPhase[phase] = true
	select {
	case s.completeCh <- phase:
	default:
	}
}

// seal latches the consumer shut — late straggler shipments are dropped —
// and returns the collected answer. Called exactly once, when the
// initiator accepts a completion for the current phase. In partial-agg
// mode the answer is the merged aggregate (the plan's leading FinalAgg is
// then already applied); in top-K mode it is the K-way merge of the
// per-source sorted runs truncated to K, with runs taken in snapshot
// member order so tie-breaking is deterministic for a given placement.
func (s *shipConsumer) seal() (*tuple.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
	switch s.ex.mode {
	case shipAggMerge:
		return s.agg.batch()
	case shipTopK:
		keys, k := topKParams(s.ex.plan)
		runs := make([]*tuple.Batch, 0, len(s.runs))
		for _, id := range s.ex.snapshot.Members() {
			if b := s.runs[id]; b != nil {
				runs = append(runs, b)
			}
		}
		merged, err := mergeTruncateCols(runs, keys, k)
		for _, b := range runs {
			RecycleResultBatch(b)
		}
		s.runs = nil
		return merged, err
	}
	return s.cols, nil
}

// streamedRows reports rows already emitted to the sink (0 when not
// streaming) — once positive, a restart would duplicate output.
func (s *shipConsumer) streamedRows() int64 { return s.streamed.Load() }

// peakBuffered is the streaming-mode high-water mark of rows buffered at
// the initiator between drains.
func (s *shipConsumer) peakBuffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// nodeStats returns the per-node counters reported with ship EOS.
func (s *shipConsumer) nodeStats() map[ring.NodeID]NodeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ring.NodeID]NodeStats, len(s.statsBy))
	for k, v := range s.statsBy {
		out[k] = v
	}
	return out
}
