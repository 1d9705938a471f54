package server

// Framing: every frame starts with a 4-byte big-endian length whose high
// bit is set — the tag — followed by a FrameKind byte and the rest of the
// kind-specific payload. A frame without the tag bit is a protocol error:
// the server answers bad_request and closes the connection.
//
// A streamed query result is the frame sequence
//
//	Schema(id, columns) Batch(id, rows)* End(id, tail|error)
//
// where each Batch carries a column-major tuple batch (tuple.EncodeBatch
// format: row count, arity, per-column type tags, optional flate). Frames of
// concurrent streams interleave freely on a connection — every frame carries
// its request ID. Backpressure is credit-based: the server may have at most
// `window` un-acknowledged batch frames in flight per stream and the client
// returns one credit per batch it consumes (Credit frames), so a slow reader
// bounds server-side buffering at window × batch size and no frame ever
// holds a whole large result.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"orchestra/internal/tuple"
)

// FrameKind tags a frame's payload.
type FrameKind byte

const (
	// FrameJSON is a JSON control message: a Request from the client or a
	// Response from the server.
	FrameJSON FrameKind = 0
	// FrameSchema opens a result stream: request ID + column names.
	FrameSchema FrameKind = 1
	// FrameBatch carries one columnar row batch: request ID + batch.
	FrameBatch FrameKind = 2
	// FrameEnd closes a result stream: request ID + JSON StreamEnd.
	FrameEnd FrameKind = 3
	// FrameCredit grants stream flow-control credits: request ID + count.
	FrameCredit FrameKind = 4
	// FrameCancel abandons a result stream: request ID only. The server
	// stops emitting batches, releases the query's resources, and still
	// terminates the stream with an End frame (code "cancelled"), so the
	// connection and its negotiated state remain usable. A cancel for an
	// unknown or already-ended stream is a no-op.
	FrameCancel FrameKind = 5
	// FramePublish carries one publish as a typed column-major batch:
	// request ID + publish ID + relation + tuple batch (answered with a
	// JSON Response). It is the only way a publish arrives.
	FramePublish FrameKind = 6
)

func (k FrameKind) String() string {
	switch k {
	case FrameJSON:
		return "json"
	case FrameSchema:
		return "schema"
	case FrameBatch:
		return "batch"
	case FrameEnd:
		return "end"
	case FrameCredit:
		return "credit"
	case FrameCancel:
		return "cancel"
	case FramePublish:
		return "publish"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// frameTagBit marks a tagged frame in the length header.
const frameTagBit = uint32(1) << 31

// Stream tuning defaults (server side; window is negotiated down by hello).
const (
	// DefaultStreamWindow is the default per-stream credit window, in
	// batch frames.
	DefaultStreamWindow = 8
	// defaultStreamBatchBytes is the target encoded size of one batch
	// frame (pre-compression).
	defaultStreamBatchBytes = 256 << 10
	// defaultStreamCompressMin is the raw batch size at which flate
	// compression kicks in on the wire path; small batches are cheaper to
	// send than to compress.
	defaultStreamCompressMin = 4 << 10
	// maxStreamBatchRows caps rows per batch frame so decode-side
	// allocations stay bounded regardless of row width.
	maxStreamBatchRows = 4096
)

// StreamEnd is the JSON payload of a FrameEnd: the query's terminal
// status and provenance/epoch metadata (or its error).
type StreamEnd struct {
	Error *WireError `json:"error,omitempty"`
	QueryTail
	// Rows and Batches summarize the stream for integrity checks.
	Rows    int64 `json:"rows,omitempty"`
	Batches int   `json:"batches,omitempty"`
}

// --- raw frame I/O ---

// frameBufPool recycles frame build buffers across requests and batches.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 8<<10)
		return &b
	},
}

// maxPooledFrameBuf bounds what returns to the pool: one huge frame must
// not permanently pin its capacity in every session.
const maxPooledFrameBuf = 1 << 20

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) > maxPooledFrameBuf {
		return // let the outlier be collected
	}
	*b = (*b)[:0]
	frameBufPool.Put(b)
}

// errUntaggedFrame reports a frame whose length header lacks the tag bit
// (a peer speaking an older protocol version).
var errUntaggedFrame = errors.New("server: untagged frame")

// ReadRawFrame reads one tagged frame, returning its kind and its payload
// (excluding the kind byte). Oversized frames return a *FrameSizeError;
// the connection cannot be re-synchronized afterwards, nor after an
// untagged frame.
func ReadRawFrame(r io.Reader, maxFrame int64) (FrameKind, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n&frameTagBit == 0 {
		return 0, nil, errUntaggedFrame
	}
	n &^= frameTagBit
	if int64(n) > maxFrame {
		return 0, nil, &FrameSizeError{Size: int64(n), Max: maxFrame}
	}
	if n == 0 {
		return 0, nil, errors.New("server: empty frame")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return FrameKind(body[0]), body[1:], nil
}

// beginBinaryFrame appends a placeholder header + kind byte to dst and
// returns the extended slice plus the header offset for finishBinaryFrame.
func beginBinaryFrame(dst []byte, kind FrameKind) ([]byte, int) {
	mark := len(dst)
	return append(dst, 0, 0, 0, 0, byte(kind)), mark
}

// finishBinaryFrame back-fills the tagged length header begun at mark.
func finishBinaryFrame(dst []byte, mark int, maxFrame int64) ([]byte, error) {
	n := len(dst) - mark - 4 // kind byte + payload
	if int64(n) > maxFrame {
		return nil, &FrameSizeError{Size: int64(n), Max: maxFrame}
	}
	binary.BigEndian.PutUint32(dst[mark:mark+4], uint32(n)|frameTagBit)
	return dst, nil
}

// AppendBinaryFrame appends one tagged frame carrying payload.
func AppendBinaryFrame(dst []byte, kind FrameKind, payload []byte, maxFrame int64) ([]byte, error) {
	dst, mark := beginBinaryFrame(dst, kind)
	dst = append(dst, payload...)
	return finishBinaryFrame(dst, mark, maxFrame)
}

// AppendJSONFrame appends a FrameJSON frame carrying v marshaled as JSON.
func AppendJSONFrame(dst []byte, v any, maxFrame int64) ([]byte, error) {
	dst, mark := beginBinaryFrame(dst, FrameJSON)
	var err error
	dst, err = appendJSON(dst, v)
	if err != nil {
		return nil, err
	}
	return finishBinaryFrame(dst, mark, maxFrame)
}

// --- stream frame payload codecs ---
//
// Every stream payload begins with the 8-byte big-endian request ID.

// AppendSchemaPayload encodes a FrameSchema payload.
func AppendSchemaPayload(dst []byte, id uint64, cols []string) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// DecodeSchemaPayload reverses AppendSchemaPayload.
func DecodeSchemaPayload(p []byte) (id uint64, cols []string, err error) {
	id, rest, err := splitStreamID(p)
	if err != nil {
		return 0, nil, err
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > 1<<16 {
		return 0, nil, errors.New("server: bad schema frame column count")
	}
	rest = rest[k:]
	cols = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(rest)
		if k <= 0 || l > uint64(len(rest)-k) {
			return 0, nil, errors.New("server: truncated schema frame")
		}
		cols = append(cols, string(rest[k:k+int(l)]))
		rest = rest[k+int(l):]
	}
	return id, cols, nil
}

// AppendCreditPayload encodes a FrameCredit payload granting n credits.
func AppendCreditPayload(dst []byte, id uint64, n int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	return binary.AppendUvarint(dst, uint64(n))
}

// DecodeCreditPayload reverses AppendCreditPayload.
func DecodeCreditPayload(p []byte) (id uint64, n int, err error) {
	id, rest, err := splitStreamID(p)
	if err != nil {
		return 0, 0, err
	}
	v, k := binary.Uvarint(rest)
	if k <= 0 || v == 0 || v > 1<<20 {
		return 0, 0, errors.New("server: bad credit frame")
	}
	return id, int(v), nil
}

// AppendCancelPayload encodes a FrameCancel payload.
func AppendCancelPayload(dst []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, id)
}

// AppendPublishPayload encodes a FramePublish payload: request ID, the
// publish idempotency ID (0 = none), relation name, and the rows as one
// column-major tuple batch.
func AppendPublishPayload(dst []byte, id, pubID uint64, relation string, rows []tuple.Row, minCompress int) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, pubID)
	dst = binary.AppendUvarint(dst, uint64(len(relation)))
	dst = append(dst, relation...)
	return tuple.AppendBatch(dst, rows, minCompress)
}

// DecodePublishPayload reverses AppendPublishPayload.
func DecodePublishPayload(p []byte) (id, pubID uint64, relation string, rows []tuple.Row, err error) {
	id, rest, err := splitStreamID(p)
	if err != nil {
		return 0, 0, "", nil, err
	}
	if len(rest) < 8 {
		return 0, 0, "", nil, errors.New("server: publish frame too short")
	}
	pubID = binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	l, k := binary.Uvarint(rest)
	if k <= 0 || l > tuple.MaxRelationNameLen || l > uint64(len(rest)-k) {
		return 0, 0, "", nil, errors.New("server: bad publish frame relation")
	}
	relation = string(rest[k : k+int(l)])
	rows, err = tuple.DecodeBatch(rest[k+int(l):])
	if err != nil {
		return 0, 0, "", nil, fmt.Errorf("server: bad publish frame batch: %w", err)
	}
	return id, pubID, relation, rows, nil
}

// splitStreamID splits the leading request ID off a stream payload.
func splitStreamID(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, errors.New("server: stream frame too short")
	}
	return binary.BigEndian.Uint64(p[:8]), p[8:], nil
}

// StreamFrameID reads the request ID of any stream frame payload.
func StreamFrameID(p []byte) (uint64, error) {
	id, _, err := splitStreamID(p)
	return id, err
}

// DecodeBatchPayload decodes a FrameBatch payload into rows.
func DecodeBatchPayload(p []byte) (id uint64, rows []tuple.Row, err error) {
	id, rest, err := splitStreamID(p)
	if err != nil {
		return 0, nil, err
	}
	rows, err = tuple.DecodeBatch(rest)
	return id, rows, err
}

// DecodeBatchPayloadAny decodes a FrameBatch payload straight into boxed
// []any rows — the client's consumption form, skipping the typed Row
// intermediate.
func DecodeBatchPayloadAny(p []byte) (id uint64, rows [][]any, err error) {
	id, rest, err := splitStreamID(p)
	if err != nil {
		return 0, nil, err
	}
	rows, err = tuple.DecodeBatchAny(rest)
	return id, rows, err
}

// DecodeEndPayload decodes a FrameEnd payload.
func DecodeEndPayload(p []byte) (id uint64, end *StreamEnd, err error) {
	id, rest, err := splitStreamID(p)
	if err != nil {
		return 0, nil, err
	}
	end = &StreamEnd{}
	if err := json.Unmarshal(rest, end); err != nil {
		return 0, nil, fmt.Errorf("server: bad end frame: %w", err)
	}
	return id, end, nil
}

// --- server-side stream writer ---

// streamWriter emits one query's result stream over a session. It
// implements ResultStream for backends: backends hand it columnar batches
// as the engine produces them; the writer re-chunks them into
// size-bounded, type-homogeneous wire batches, encodes each straight from
// the column vectors into a pooled buffer, and blocks for flow-control
// credit when the window is exhausted.
type streamWriter struct {
	ctx     context.Context
	sess    *session
	id      uint64
	window  int         // negotiated credit window (batch frames)
	credits chan uint64 // replenished by the session's read loop

	maxFrame    int64
	targetBytes int // soft cut point for one batch (pre-compression)
	compressMin int // raw bytes at which flate kicks in (<0: never)

	started bool // schema frame sent
	avail   int  // send credits remaining
	rows    int64
	batches int

	// cancelled latches when a FrameCancel arrives; cancelFn (set by
	// dispatchStream before the stream registers) aborts the query
	// context so a running execution or a credit wait unblocks.
	cancelled atomic.Bool
	cancelFn  context.CancelFunc

	// onFirst (set by dispatchStream) fires once, after the first batch
	// frame reaches the session writer — the server's first-byte moment
	// for latency accounting.
	onFirst func()

	// staged accumulates rows toward the next batch frame; slice is the
	// scratch view used to carve spans off inbound batches.
	staged    *tuple.Batch
	stageSize int // size hint of the staged rows
	rowFixed  int // bytes per staged row when no column is a string (else 0)
	slice     tuple.Batch
}

func newStreamWriter(ctx context.Context, sess *session, id uint64, window int) *streamWriter {
	maxFrame := sess.lim.maxFrame
	target := defaultStreamBatchBytes
	// Leave generous headroom under the frame cap: compression is applied
	// after the cut, but incompressible data must still fit.
	if lim := int(maxFrame / 4); lim > 0 && target > lim {
		target = lim
	}
	compressMin := sess.srv.cfg.StreamCompressMin
	if compressMin == 0 {
		compressMin = defaultStreamCompressMin
	}
	if window < 1 {
		window = 1
	}
	return &streamWriter{
		ctx:    ctx,
		sess:   sess,
		id:     id,
		window: window,
		// Sized to the window: a well-behaved client never has more
		// un-drained credits in flight than un-acknowledged batches, so
		// nothing legitimate is ever dropped by credit().
		credits:     make(chan uint64, window),
		maxFrame:    maxFrame,
		targetBytes: target,
		compressMin: compressMin,
		avail:       window,
	}
}

// Columns implements ResultStream: announces the result shape. Must be
// called once, before any batch.
func (w *streamWriter) Columns(cols []string) error {
	if w.started {
		return errors.New("server: stream schema already sent")
	}
	w.started = true
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	dst, mark := beginBinaryFrame((*buf)[:0], FrameSchema)
	dst = AppendSchemaPayload(dst, w.id, cols)
	dst, err := finishBinaryFrame(dst, mark, w.maxFrame)
	if err != nil {
		return err
	}
	*buf = dst[:0]
	return w.sess.write(dst)
}

// stagingBatchPool recycles the columnar staging buffers across streams.
var stagingBatchPool = sync.Pool{New: func() any { return &tuple.Batch{} }}

// Batches implements ResultStream: stages a columnar batch for emission,
// carving frame-sized spans straight off the column vectors — no row is
// materialized anywhere on this path. A frame is cut when it reaches the
// target size or row cap, and wherever the column types change (a batch
// column holds one type). For fixed-width types (no string column) the
// per-row size hint collapses to a multiplication. The batch is borrowed:
// the caller may reuse it once the call returns.
func (w *streamWriter) Batches(b *tuple.Batch) error {
	if !w.started {
		return errors.New("server: stream batch before schema")
	}
	if b.N == 0 {
		return nil
	}
	if w.staged == nil {
		w.staged = stagingBatchPool.Get().(*tuple.Batch)
		w.staged.ResetTypes(nil)
	}
	types := b.Types()
	for i := 0; i < b.N; {
		if w.staged.N > 0 && !w.staged.SameTypes(types) {
			if err := w.flush(); err != nil {
				return err
			}
		}
		if w.staged.N == 0 {
			w.staged.ResetTypes(nil) // adopt the inbound types
			w.rowFixed = fixedRowSize(types)
		}
		j := i
		budget := w.targetBytes - w.stageSize
		roomRows := maxStreamBatchRows - w.staged.N
		if fixed := w.rowFixed; fixed > 0 {
			// The row that crosses the target still goes into the batch.
			n := budget/fixed + 1
			if n > roomRows {
				n = roomRows
			}
			if j += n; j > b.N {
				j = b.N
			}
			w.stageSize += (j - i) * fixed
		} else {
			for j < b.N && budget > 0 && j-i < roomRows {
				h := rowSizeHint(b, j)
				w.stageSize += h
				budget -= h
				j++
			}
		}
		if j > i {
			b.Slice(i, j, &w.slice)
			if err := w.staged.AppendBatchInto(&w.slice); err != nil {
				return err
			}
		}
		i = j
		if w.stageSize >= w.targetBytes || w.staged.N >= maxStreamBatchRows || i < b.N {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	// The opening frame is cut at the first emission boundary rather than
	// held for a full target-size batch: time-to-first-byte matters more
	// than frame efficiency for the first frame, and a streamed backend's
	// first chunk may otherwise sit staged while the scan fills the target.
	// Steady-state frames keep the targetBytes/maxStreamBatchRows cut.
	if w.batches == 0 && w.staged.N > 0 {
		return w.flush()
	}
	return nil
}

// fixedRowSize is the encoded size hint of a row of the given column
// types, or 0 when a string column makes it vary row to row (the hint
// constants mirror tuple.RowSizeHint).
func fixedRowSize(types []tuple.Type) int {
	n := 0
	for _, t := range types {
		switch t {
		case tuple.Int64:
			n += 5
		case tuple.Float64:
			n += 8
		default:
			return 0
		}
	}
	return n
}

// rowSizeHint estimates row i's encoded size from the column vectors
// (same constants as tuple.RowSizeHint).
func rowSizeHint(b *tuple.Batch, i int) int {
	n := 0
	for c := range b.Cols {
		switch b.Cols[c].T {
		case tuple.Int64:
			n += 5
		case tuple.Float64:
			n += 8
		case tuple.String:
			n += len(b.Cols[c].Str[i]) + 2
		}
	}
	return n
}

// flush encodes and sends the staged rows as one batch frame, straight
// from the vectors, waiting for a flow-control credit first.
func (w *streamWriter) flush() error {
	if w.cancelled.Load() {
		if w.staged != nil {
			w.staged.Truncate(0)
		}
		w.stageSize = 0
		return errStreamCancelled
	}
	if w.staged == nil || w.staged.N == 0 {
		return nil
	}
	if err := w.waitCredit(); err != nil {
		return err
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	dst, mark := beginBinaryFrame((*buf)[:0], FrameBatch)
	dst = binary.BigEndian.AppendUint64(dst, w.id)
	dst, err := tuple.AppendBatchCols(dst, w.staged, w.compressMin)
	if err != nil {
		return err
	}
	dst, err = finishBinaryFrame(dst, mark, w.maxFrame)
	if err != nil {
		return err
	}
	w.rows += int64(w.staged.N)
	w.batches++
	w.staged.Truncate(0)
	w.stageSize = 0
	*buf = dst[:0]
	return w.writeBatchFrame(dst)
}

// releaseStaging returns the staging buffer to the pool (the stream has
// ended; nothing further will be staged).
func (w *streamWriter) releaseStaging() {
	if w.staged != nil {
		w.staged.Truncate(0)
		w.staged.ClearStrings() // don't pin result strings while pooled
		stagingBatchPool.Put(w.staged)
		w.staged = nil
	}
}

// errStreamCancelled aborts emission after a client cancel; dispatch
// maps it onto the "cancelled" End code.
var errStreamCancelled = errors.New("server: stream cancelled by client")

// cancelReq handles an inbound FrameCancel: further emission is dropped
// and the query context aborts (stopping execution or a credit wait).
func (w *streamWriter) cancelReq() {
	w.cancelled.Store(true)
	if w.cancelFn != nil {
		w.cancelFn()
	}
}

// writeBatchFrame sends one encoded batch frame and fires the first-batch
// hook once the first frame has actually reached the session writer.
func (w *streamWriter) writeBatchFrame(dst []byte) error {
	if err := w.sess.write(dst); err != nil {
		return err
	}
	if w.onFirst != nil {
		w.onFirst()
		w.onFirst = nil
	}
	return nil
}

// RowsStaged reports how many result rows the writer has accepted so far
// — flushed frames plus rows still staged toward the next one. Exact at
// any point where the backend is not mid-call (the dispatcher reads it
// after the backend returns, before the final flush in end()).
func (w *streamWriter) RowsStaged() int64 {
	n := w.rows
	if w.staged != nil {
		n += int64(w.staged.N)
	}
	return n
}

// waitCredit consumes one send credit, blocking on the client when the
// window is exhausted. Bounded by the request context (so an abandoned
// stream times out) and the session lifetime (so a dead connection
// unblocks immediately).
func (w *streamWriter) waitCredit() error {
	for w.avail <= 0 {
		select {
		case n := <-w.credits:
			w.avail += int(n)
		case <-w.ctx.Done():
			return Errorf(CodeTimeout, "stream stalled awaiting credit: %v", w.ctx.Err())
		case <-w.sess.ctx.Done():
			return errors.New("server: session closed mid-stream")
		}
	}
	// Drain any credits that arrived while we were sending.
	for {
		select {
		case n := <-w.credits:
			w.avail += int(n)
		default:
			w.avail--
			return nil
		}
	}
}

// end flushes staged rows and sends the terminal frame. When the stream
// failed before producing its schema frame, the End frame is still the
// first and only frame — clients handle End-before-Schema. A tail that
// will not encode (a plan or error message past the frame cap) is
// replaced by a minimal error End: a stream must never end without one.
//
// settle runs with the final tail after the End frame is encoded but
// before it is written: the dispatcher unregisters and accounts the
// stream there, so by the time a client sees End — and may at once
// reuse the request ID or ask for status — the ID is free and the query
// counted.
func (w *streamWriter) end(tail *StreamEnd, settle func(*StreamEnd)) error {
	if tail.Error == nil {
		if err := w.flush(); err != nil {
			if errors.Is(err, errStreamCancelled) {
				tail = &StreamEnd{Error: Errorf(CodeCancelled, "stream cancelled by client")}
			} else {
				// Credit starvation or encode failure: degrade to an error end.
				tail = &StreamEnd{Error: toWireError(w.ctx, err)}
			}
		}
	}
	w.releaseStaging()
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	frame, err := w.appendEnd((*buf)[:0], tail)
	if err != nil {
		code := CodeInternal
		var fse *FrameSizeError
		if errors.As(err, &fse) {
			code = CodeFrameTooLarge
		}
		tail = &StreamEnd{Error: Errorf(code, "encode stream end: frame limit exceeded")}
		frame, err = w.appendEnd((*buf)[:0], tail)
	}
	settle(tail)
	if err != nil {
		w.sess.conn.Close() // no End frame at all: sever rather than leave the client waiting
		return err
	}
	*buf = frame[:0]
	return w.sess.write(frame)
}

// appendEnd appends the stream's End frame carrying tail.
func (w *streamWriter) appendEnd(dst []byte, tail *StreamEnd) ([]byte, error) {
	tail.Rows = w.rows
	tail.Batches = w.batches
	dst, mark := beginBinaryFrame(dst, FrameEnd)
	dst = binary.BigEndian.AppendUint64(dst, w.id)
	dst, err := appendJSON(dst, tail)
	if err != nil {
		return nil, err
	}
	return finishBinaryFrame(dst, mark, w.maxFrame)
}

// credit is called by the session read loop when a FrameCredit arrives.
func (w *streamWriter) credit(n uint64) {
	select {
	case w.credits <- n:
	default:
		// Window is bounded; a client flooding credits beyond the buffer
		// is misbehaving — dropping extras only ever slows its stream.
	}
}
