package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"orchestra/internal/tuple"
)

func TestHelloNegotiation(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{StreamWindow: 6})
	conn := dialRaw(t, s)
	h := conn.hello(t, &HelloRequest{
		Version:  ProtocolVersion,
		MaxFrame: 1 << 20,
		Window:   4,
	})
	if h.Version != ProtocolVersion {
		t.Fatalf("version %d", h.Version)
	}
	if h.MaxFrame != 1<<20 {
		t.Fatalf("max frame %d, want the client's lower 1MiB", h.MaxFrame)
	}
	if h.Window != 4 {
		t.Fatalf("window %d, want min(4, 6)", h.Window)
	}
	// Hello is accounted like any op.
	if st := s.Stats(); st.Ops[OpHello].Count != 1 {
		t.Fatalf("hello count %d", st.Ops[OpHello].Count)
	}
}

// TestStreamedQueryFrames drives the full frame sequence against a
// scripted streaming backend and checks shape, content, and IDs.
func TestStreamedQueryFrames(t *testing.T) {
	rows := func(lo, hi int) []tuple.Row {
		var out []tuple.Row
		for i := lo; i < hi; i++ {
			out = append(out, tuple.Row{tuple.I(int64(i)), tuple.S("v")})
		}
		return out
	}
	stub := &stubBackend{
		cols:    []string{"a", "b"},
		batches: [][]tuple.Row{rows(0, 10), rows(10, 25)},
		tail:    QueryTail{Epoch: 42, Phases: 1},
	}
	s := startTestServer(t, stub, Config{})
	conn := dialTest(t, s)

	const reqID = 777
	conn.send(t, &Request{ID: reqID, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	kind, payload := conn.frame(t)
	if kind != FrameSchema {
		t.Fatalf("first frame %v, want schema", kind)
	}
	id, cols, err := DecodeSchemaPayload(payload)
	if err != nil || id != reqID {
		t.Fatalf("schema: id=%d err=%v", id, err)
	}
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("cols %v", cols)
	}
	var got []tuple.Row
	for {
		kind, payload = conn.frame(t)
		if kind == FrameBatch {
			id, rows, err := DecodeBatchPayload(payload)
			if err != nil || id != reqID {
				t.Fatalf("batch: id=%d err=%v", id, err)
			}
			got = append(got, rows...)
			continue
		}
		break
	}
	if kind != FrameEnd {
		t.Fatalf("terminal frame %v, want end", kind)
	}
	id, end, err := DecodeEndPayload(payload)
	if err != nil || id != reqID {
		t.Fatalf("end: id=%d err=%v", id, err)
	}
	if end.Error != nil || end.Epoch != 42 || end.Rows != 25 {
		t.Fatalf("end: %+v", end)
	}
	if len(got) != 25 {
		t.Fatalf("streamed %d rows, want 25", len(got))
	}
	for i, r := range got {
		if r[0].I64 != int64(i) || r[1].Str != "v" {
			t.Fatalf("row %d: %v", i, r)
		}
	}
}

// TestStreamCreditBackpressure negotiates a window of 1 and shows (a)
// the server stalls after one un-acknowledged batch, (b) other requests
// still interleave on the connection mid-stream, and (c) credits resume
// the stream to completion.
func TestStreamCreditBackpressure(t *testing.T) {
	big := make([]tuple.Row, 2000)
	for i := range big {
		big[i] = tuple.Row{tuple.I(int64(i)), tuple.S("padpadpadpadpadpadpadpad")}
	}
	stub := &stubBackend{
		cols:    []string{"a", "b"},
		batches: [][]tuple.Row{big[:700], big[700:1400], big[1400:]},
	}
	s := startTestServer(t, stub, Config{})
	conn := dialRaw(t, s)
	// Negotiate a small frame cap so the byte target (maxFrame/4 = 16KiB)
	// cuts the ~70KiB result into several wire batches; window 1 then
	// stalls the stream after each un-credited batch.
	h := conn.hello(t, &HelloRequest{Version: ProtocolVersion, Window: 1, MaxFrame: 64 << 10})
	if h.Window != 1 {
		t.Fatalf("window %d", h.Window)
	}
	const reqID = 9
	conn.send(t, &Request{ID: reqID, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	// Schema, then exactly one batch; the server now owes us nothing
	// until we grant credit.
	if kind, _ := conn.frame(t); kind != FrameSchema {
		t.Fatalf("kind=%v", kind)
	}
	kind, payload := conn.frame(t)
	if kind != FrameBatch {
		t.Fatalf("kind=%v", kind)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, rows1, err := DecodeBatchPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: a ping mid-stream gets its response while the stream
	// is stalled on credit.
	conn.send(t, &Request{ID: 10, Op: OpPing})
	resp, err := conn.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 10 || resp.Error != nil {
		t.Fatalf("interleaved ping: %+v", resp)
	}
	// Grant credits until the stream completes.
	total := len(rows1)
	for {
		conn.credit(t, reqID)
		kind, payload := conn.frame(t)
		if kind == FrameEnd {
			_, end, err := DecodeEndPayload(payload)
			if err != nil || end.Error != nil {
				t.Fatalf("end: %+v err=%v", end, err)
			}
			if int(end.Rows) != len(big) {
				t.Fatalf("end rows %d, want %d", end.Rows, len(big))
			}
			break
		}
		if kind != FrameBatch {
			t.Fatalf("kind=%v", kind)
		}
		_, rows, err := DecodeBatchPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != len(big) {
		t.Fatalf("streamed %d rows, want %d", total, len(big))
	}
}

// TestStreamHeterogeneousRowTypes: result rows whose column types vary
// row to row (legal for expression results) must be cut into
// type-homogeneous batches, never co-batched or dropped.
func TestStreamHeterogeneousRowTypes(t *testing.T) {
	var rows []tuple.Row
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			rows = append(rows, tuple.Row{tuple.I(int64(i))})
		case 1:
			rows = append(rows, tuple.Row{tuple.S(fmt.Sprintf("s%d", i))})
		default:
			rows = append(rows, tuple.Row{tuple.F(float64(i))})
		}
	}
	stub := &stubBackend{cols: []string{"x"}, batches: [][]tuple.Row{rows}}
	s := startTestServer(t, stub, Config{StreamWindow: 64})
	conn := dialTest(t, s)
	r := conn.query(t, 1, &QueryRequest{SQL: "q"})
	if r.errCode() != "" {
		t.Fatalf("heterogeneous stream failed: %s", r.errCode())
	}
	if len(r.rows) != len(rows) {
		t.Fatalf("streamed %d rows, want %d", len(r.rows), len(rows))
	}
	for i := range rows {
		if !r.rows[i].Equal(rows[i]) || r.rows[i][0].T != rows[i][0].T {
			t.Fatalf("row %d: %v (type %v) != %v", i, r.rows[i], r.rows[i][0].T, rows[i])
		}
	}
}

// TestStreamDuplicateIDRejected: a second streamed query reusing an
// active stream's ID is refused with an error End frame (its frames
// would be un-demultiplexable), and the first stream is unaffected.
func TestStreamDuplicateIDRejected(t *testing.T) {
	rows := make([]tuple.Row, 4)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i))}
	}
	gate := make(chan struct{})
	stub := &stubBackend{cols: []string{"x"}, batches: [][]tuple.Row{rows}, gate: gate}
	s := startTestServer(t, stub, Config{MaxConcurrentQueries: 4})
	conn := dialTest(t, s)
	// First stream: parks before its batch, holding ID 5 active.
	conn.send(t, &Request{ID: 5, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	if kind, _ := conn.frame(t); kind != FrameSchema {
		t.Fatalf("kind=%v", kind)
	}
	// Second stream reusing ID 5 is rejected outright.
	conn.send(t, &Request{ID: 5, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	kind, payload := conn.frame(t)
	if kind != FrameEnd {
		t.Fatalf("kind=%v", kind)
	}
	if _, end, err := DecodeEndPayload(payload); err != nil ||
		end.Error == nil || end.Error.Code != CodeBadRequest {
		t.Fatalf("end %+v err=%v, want bad_request", end, err)
	}
	// The first stream completes untouched.
	close(gate)
	if r := conn.await(t, 5); r.errCode() != "" || len(r.rows) != len(rows) {
		t.Fatalf("first stream: %q, %d rows, want %d", r.errCode(), len(r.rows), len(rows))
	}
}

// TestStreamIDReuseKeepsCredits: a finished stream's cleanup that runs
// after the client reused its ID must not unregister the new stream —
// the new stream would lose every credit and stall until its timeout.
func TestStreamIDReuseKeepsCredits(t *testing.T) {
	sess := &session{streams: make(map[uint64]*streamWriter)}
	first := &streamWriter{credits: make(chan uint64, 1)}
	second := &streamWriter{credits: make(chan uint64, 1)}
	if !sess.registerStream(1, first) {
		t.Fatal("first stream not registered")
	}
	sess.dropStream(1, first) // first stream ends: its ID is free again
	if !sess.registerStream(1, second) {
		t.Fatal("reused ID not registered")
	}
	sess.dropStream(1, first) // the first stream's cleanup runs again, late
	sess.creditStream(1, 1)
	select {
	case n := <-second.credits:
		if n != 1 {
			t.Fatalf("credit %d, want 1", n)
		}
	default:
		t.Fatal("second stream lost its credit: the first stream's cleanup unregistered it")
	}
}

// TestStreamErrorInEndFrame: a failing query on a stream request is
// reported in the End frame, and the session survives.
func TestStreamErrorInEndFrame(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryErr: errors.New("boom")}, Config{})
	conn := dialTest(t, s)
	conn.send(t, &Request{ID: 3, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	kind, payload := conn.frame(t)
	if kind != FrameEnd {
		t.Fatalf("kind=%v", kind)
	}
	id, end, err := DecodeEndPayload(payload)
	if err != nil || id != 3 {
		t.Fatal(err)
	}
	if end.Error == nil || end.Error.Code != CodeInternal {
		t.Fatalf("end error %+v", end.Error)
	}
	// Session alive.
	conn.send(t, &Request{ID: 4, Op: OpPing})
	if resp, err := conn.readResponse(); err != nil || resp.Error != nil {
		t.Fatalf("session died: %v %+v", err, resp)
	}
}

// TestInboundFrameTooLarge: the server reports frame_too_large before
// closing instead of silently dropping the connection.
func TestInboundFrameTooLarge(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{MaxFrame: 1 << 10})
	conn := dialTest(t, s) // hello floors the limit at MinFrame
	conn.send(t, &Request{ID: 1, Op: OpQuery, Query: &QueryRequest{SQL: string(make([]byte, MinFrame))}})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := conn.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != CodeFrameTooLarge {
		t.Fatalf("got %+v, want frame_too_large", resp.Error)
	}
	// The connection is closed afterwards (framing lost).
	if _, err := conn.readResponse(); err == nil {
		t.Fatal("connection survived unreadable frame")
	}
}

// TestOversizedResultStreams: a result far bigger than the frame cap
// streams to completion, cut into batch frames that each fit the cap.
func TestOversizedResultStreams(t *testing.T) {
	var rows []tuple.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, tuple.Row{tuple.I(int64(i)), tuple.S("pad pad pad pad pad pad")})
	}
	stub := &stubBackend{cols: []string{"a", "b"}, batches: [][]tuple.Row{rows}}
	const maxFrame = 16 << 10
	s := startTestServer(t, stub, Config{MaxFrame: maxFrame})
	conn := dialTest(t, s)
	conn.send(t, &Request{ID: 2, Op: OpQuery, Query: &QueryRequest{SQL: "big"}})
	var n, batches int
	for {
		kind, payload, err := ReadRawFrame(conn.br, maxFrame) // every frame fits the cap
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case FrameSchema:
		case FrameBatch:
			_, batch, err := DecodeBatchPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			n += len(batch)
			batches++
			// Keep the credit window sliding: the result spans far more
			// batch frames than the default window.
			conn.credit(t, 2)
		case FrameEnd:
			_, end, err := DecodeEndPayload(payload)
			if err != nil || end.Error != nil {
				t.Fatalf("end %+v err=%v", end, err)
			}
			if n != len(rows) || batches < 2 {
				t.Fatalf("streamed %d rows in %d batches, want %d rows in several", n, batches, len(rows))
			}
			return
		default:
			t.Fatalf("unexpected %v frame", kind)
		}
	}
}

// TestStreamCancelFrame: a cancel frame stops server-side emission, the
// stream still terminates with a "cancelled" End frame, the admission
// slot is returned, and the connection remains usable for further
// requests.
func TestStreamCancelFrame(t *testing.T) {
	// Rows big enough that each backend batch crosses the writer's flush
	// threshold (256 KiB), so batch frames go out before stream end.
	pad := strings.Repeat("p", 400)
	big := make([]tuple.Row, 3000)
	for i := range big {
		big[i] = tuple.Row{tuple.I(int64(i)), tuple.S(pad)}
	}
	gate := make(chan struct{}, 1)
	stub := &stubBackend{
		cols:    []string{"a", "b"},
		batches: [][]tuple.Row{big[:1000], big[1000:2000], big[2000:]},
		gate:    gate,
	}
	s := startTestServer(t, stub, Config{StreamWindow: 1})
	conn := dialRaw(t, s)
	conn.hello(t, &HelloRequest{Version: ProtocolVersion, Window: 1})

	const reqID = 11
	conn.send(t, &Request{ID: reqID, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	gate <- struct{}{} // release the first backend batch
	if kind, _ := conn.frame(t); kind != FrameSchema {
		t.Fatalf("first frame %v, want schema", kind)
	}
	// Consume frames until the first batch arrives; the window of 1 then
	// stalls the writer while the backend waits on its gate.
	kind, payload := conn.frame(t)
	if kind != FrameBatch {
		t.Fatalf("second frame %v, want batch", kind)
	}
	if id, _, err := DecodeBatchPayload(payload); err != nil || id != reqID {
		t.Fatalf("batch id=%d err=%v", id, err)
	}

	// Abandon the stream: no credits, just a cancel frame.
	conn.sendFrame(t, FrameCancel, AppendCancelPayload(nil, reqID))

	// Everything up to End is drained; End must carry the cancelled code.
	for kind == FrameBatch {
		kind, payload = conn.frame(t) // batches in flight before the cancel landed
	}
	if kind != FrameEnd {
		t.Fatalf("terminal frame %v, want end", kind)
	}
	id, end, err := DecodeEndPayload(payload)
	if err != nil || id != reqID {
		t.Fatalf("end: id=%d err=%v", id, err)
	}
	if end.Error == nil || end.Error.Code != CodeCancelled {
		t.Fatalf("end error %+v, want code %q", end.Error, CodeCancelled)
	}

	// The admission slot came back.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().InFlightQueries != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight queries stuck at %d after cancel", s.Stats().InFlightQueries)
		}
		time.Sleep(time.Millisecond)
	}

	// The connection remains usable.
	conn.send(t, &Request{ID: 12, Op: OpPing})
	resp, err := conn.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 12 || resp.Error != nil {
		t.Fatalf("post-cancel ping: %+v", resp)
	}

	// A cancel for an unknown stream is ignored, not fatal.
	conn.sendFrame(t, FrameCancel, AppendCancelPayload(nil, 9999))
	conn.send(t, &Request{ID: 13, Op: OpPing})
	if resp, err = conn.readResponse(); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 13 || resp.Error != nil {
		t.Fatalf("ping after unknown-id cancel: %+v", resp)
	}
}
