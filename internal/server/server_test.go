package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/tuple"
)

// --- protocol ---

func TestFrameRoundTrip(t *testing.T) {
	in := &Request{ID: 7, Op: OpQuery, Query: &QueryRequest{SQL: "SELECT 1", Epoch: 42}}
	frame, err := AppendJSONFrame(nil, in, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadRawFrame(bytes.NewReader(frame), MaxFrame)
	if err != nil || kind != FrameJSON {
		t.Fatalf("kind %v err %v", kind, err)
	}
	var out Request
	if err := UnmarshalJSONFrame(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Op != OpQuery || out.Query == nil || out.Query.SQL != "SELECT 1" || out.Query.Epoch != 42 {
		t.Fatalf("round trip mangled request: %+v", out)
	}
}

func TestFrameTooLarge(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	var fse *FrameSizeError
	if _, _, err := ReadRawFrame(bytes.NewReader(hdr), MaxFrame); !errors.As(err, &fse) {
		t.Fatalf("oversized frame: %v, want *FrameSizeError", err)
	}
	untagged := []byte{0, 0, 0, 2, '{', '}'}
	if _, _, err := ReadRawFrame(bytes.NewReader(untagged), MaxFrame); !errors.Is(err, errUntaggedFrame) {
		t.Fatalf("untagged frame: %v, want errUntaggedFrame", err)
	}
}

// TestCoerceTypedRows pins the publish coercion rules: numeric columns
// take either numeric type (integral floats only for int columns),
// string columns take strings, and violations are bad requests.
func TestCoerceTypedRows(t *testing.T) {
	s := tuple.MustSchema("r", []tuple.Column{
		{Name: "a", Type: tuple.Int64},
		{Name: "b", Type: tuple.Float64},
		{Name: "c", Type: tuple.String},
	})
	rows := []tuple.Row{{tuple.F(9), tuple.I(1), tuple.S("hi")}}
	if err := CoerceTypedRows(s, rows); err != nil {
		t.Fatal(err)
	}
	want := tuple.Row{tuple.I(9), tuple.F(1), tuple.S("hi")}
	for i := range want {
		if !rows[0][i].Equal(want[i]) || rows[0][i].T != want[i].T {
			t.Fatalf("col %d: got %v want %v", i, rows[0][i], want[i])
		}
	}
	for _, bad := range []tuple.Row{
		{tuple.F(9.5), tuple.F(1), tuple.S("hi")},  // fractional into int
		{tuple.I(9), tuple.F(1)},                   // short row
		{tuple.S("no"), tuple.F(1), tuple.S("hi")}, // string into int
		{tuple.I(9), tuple.F(1), tuple.I(3)},       // int into string
	} {
		var we *WireError
		if err := CoerceTypedRows(s, []tuple.Row{bad}); !errors.As(err, &we) || we.Code != CodeBadRequest {
			t.Fatalf("row %v: %v, want bad_request", bad, err)
		}
	}
}

// --- server core, against a stub backend ---

// stubBackend streams a scripted result: cols and batches (default: one
// column "one" holding the single row {1}) with tail (default epoch 3).
// Each scripted row slice goes out as columnar batches (see emitRows).
// queryDelay, gate and queryErr let tests control execution precisely.
type stubBackend struct {
	cols       []string
	batches    [][]tuple.Row
	tail       QueryTail
	gate       chan struct{} // when set, received before each batch
	queryDelay time.Duration
	queryErr   error
}

func (b *stubBackend) Create(ctx context.Context, req *CreateRequest) (tuple.Epoch, error) {
	return 1, nil
}

func (b *stubBackend) Publish(ctx context.Context, req *PublishRequest) (tuple.Epoch, error) {
	return 2, nil
}

func (b *stubBackend) QueryStream(ctx context.Context, req *QueryRequest, out ResultStream) (*QueryTail, error) {
	if b.queryErr != nil {
		return nil, b.queryErr
	}
	if b.queryDelay > 0 {
		select {
		case <-time.After(b.queryDelay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cols, batches, tail := b.cols, b.batches, b.tail
	if cols == nil {
		cols, batches, tail = []string{"one"}, [][]tuple.Row{{{tuple.I(1)}}}, QueryTail{Epoch: 3}
	}
	if err := out.Columns(cols); err != nil {
		return nil, err
	}
	for _, rows := range batches {
		if b.gate != nil {
			select {
			case <-b.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err := emitRows(out, rows); err != nil {
			return nil, err
		}
	}
	return &tail, nil
}

// emitRows hands rows to out as columnar batches, starting a new batch
// wherever the column types change (a batch column holds one type).
func emitRows(out ResultStream, rows []tuple.Row) error {
	for lo := 0; lo < len(rows); {
		types := make([]tuple.Type, len(rows[lo]))
		for i, v := range rows[lo] {
			types[i] = v.T
		}
		b := &tuple.Batch{}
		b.ResetTypes(types)
		hi := lo
		for ; hi < len(rows); hi++ {
			if b.AppendRow(rows[hi]) != nil {
				b.Truncate(hi - lo) // drop a partly appended row
				break
			}
		}
		if err := out.Batches(b); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

func (b *stubBackend) Catalog(ctx context.Context, rel string) (*SchemaResponse, error) {
	if rel != "" && rel != "known" {
		return nil, Errorf(CodeNotFound, "relation %q", rel)
	}
	return &SchemaResponse{Relations: []RelationInfo{{Relation: "known"}}}, nil
}

func (b *stubBackend) Epoch() tuple.Epoch { return 3 }
func (b *stubBackend) Info() BackendInfo  { return BackendInfo{NodeID: "stub", Members: 1} }

func startTestServer(t *testing.T, b Backend, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := Start("127.0.0.1:0", b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testConn is a raw protocol connection. Replies to pipelined requests
// arrive in completion order, so await buffers the ones it reads past.
type testConn struct {
	net.Conn
	br      *bufio.Reader
	replies map[uint64]*reply
}

// reply is one request's outcome: a JSON response, or a result stream's
// rows and End frame.
type reply struct {
	resp *Response
	rows []tuple.Row
	end  *StreamEnd
}

// errCode returns the reply's error code ("" on success).
func (r *reply) errCode() string {
	switch {
	case r.resp != nil && r.resp.Error != nil:
		return r.resp.Error.Code
	case r.end != nil && r.end.Error != nil:
		return r.end.Error.Code
	}
	return ""
}

// dialRaw connects without the hello handshake.
func dialRaw(t *testing.T, s *Server) *testConn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testConn{Conn: conn, br: bufio.NewReader(conn), replies: make(map[uint64]*reply)}
}

// dialTest connects and completes a default hello handshake.
func dialTest(t *testing.T, s *Server) *testConn {
	t.Helper()
	c := dialRaw(t, s)
	c.hello(t, &HelloRequest{Version: ProtocolVersion})
	return c
}

// hello performs the handshake and returns the negotiated settings.
func (c *testConn) hello(t *testing.T, req *HelloRequest) *HelloResponse {
	t.Helper()
	c.send(t, &Request{ID: 99, Op: OpHello, Hello: req})
	resp, err := c.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil {
		t.Fatalf("hello: %v", resp.Error)
	}
	if resp.Hello == nil {
		t.Fatal("hello: no payload")
	}
	return resp.Hello
}

// send writes one JSON request frame.
func (c *testConn) send(t *testing.T, req *Request) {
	t.Helper()
	frame, err := AppendJSONFrame(nil, req, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// sendFrame writes one tagged frame of the given kind.
func (c *testConn) sendFrame(t *testing.T, kind FrameKind, payload []byte) {
	t.Helper()
	frame, err := AppendBinaryFrame(nil, kind, payload, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// credit grants one flow-control credit to stream id.
func (c *testConn) credit(t *testing.T, id uint64) {
	t.Helper()
	c.sendFrame(t, FrameCredit, AppendCreditPayload(nil, id, 1))
}

// frame reads the next frame, failing the test on error.
func (c *testConn) frame(t *testing.T) (FrameKind, []byte) {
	t.Helper()
	kind, payload, err := ReadRawFrame(c.br, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return kind, payload
}

// readResponse reads the next frame as a JSON response.
func (c *testConn) readResponse() (*Response, error) {
	kind, payload, err := ReadRawFrame(c.br, MaxFrame)
	if err != nil {
		return nil, err
	}
	if kind != FrameJSON {
		return nil, errors.New("not a JSON frame: " + kind.String())
	}
	var resp Response
	return &resp, UnmarshalJSONFrame(payload, &resp)
}

// await reads frames until request id's reply is complete, buffering
// replies to other requests and granting a credit for every batch frame.
func (c *testConn) await(t *testing.T, id uint64) *reply {
	t.Helper()
	for {
		if r := c.replies[id]; r != nil && (r.resp != nil || r.end != nil) {
			delete(c.replies, id)
			return r
		}
		kind, payload := c.frame(t)
		if kind == FrameJSON {
			var resp Response
			if err := UnmarshalJSONFrame(payload, &resp); err != nil {
				t.Fatal(err)
			}
			c.replies[resp.ID] = &reply{resp: &resp}
			continue
		}
		rid, err := StreamFrameID(payload)
		if err != nil {
			t.Fatal(err)
		}
		r := c.replies[rid]
		if r == nil {
			r = &reply{}
			c.replies[rid] = r
		}
		switch kind {
		case FrameSchema:
		case FrameBatch:
			_, rows, err := DecodeBatchPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			r.rows = append(r.rows, rows...)
			c.credit(t, rid)
		case FrameEnd:
			if _, r.end, err = DecodeEndPayload(payload); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected %v frame", kind)
		}
	}
}

// query sends one query and waits for its whole result stream.
func (c *testConn) query(t *testing.T, id uint64, q *QueryRequest) *reply {
	t.Helper()
	c.send(t, &Request{ID: id, Op: OpQuery, Query: q})
	return c.await(t, id)
}

func TestServerBasicOps(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialTest(t, s)
	for i, req := range []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpCreate, Create: &CreateRequest{Relation: "r", Columns: []string{"a:int"}}},
		{ID: 3, Op: OpQuery, Query: &QueryRequest{SQL: "SELECT 1"}},
		{ID: 4, Op: OpSchema, Schema: &SchemaRequest{Relation: "known"}},
		{ID: 5, Op: OpStatus},
	} {
		conn.send(t, req)
		r := conn.await(t, req.ID)
		if code := r.errCode(); code != "" {
			t.Fatalf("op %d: %s", i, code)
		}
		if req.Op == OpQuery && (len(r.rows) != 1 || r.rows[0][0].I64 != 1 || r.end.Epoch != 3) {
			t.Fatalf("query: rows %v end %+v", r.rows, r.end)
		}
	}
}

func TestServerErrorMapping(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialTest(t, s)
	cases := []struct {
		req  *Request
		code string
	}{
		{&Request{ID: 1, Op: "bogus"}, CodeBadRequest},
		{&Request{ID: 2, Op: OpQuery}, CodeBadRequest}, // missing payload
		{&Request{ID: 3, Op: OpSchema, Schema: &SchemaRequest{Relation: "nope"}}, CodeNotFound},
	}
	for _, tc := range cases {
		conn.send(t, tc.req)
		if code := conn.await(t, tc.req.ID).errCode(); code != tc.code {
			t.Fatalf("op %q: got %q, want code %s", tc.req.Op, code, tc.code)
		}
	}
	// Errors are accounted.
	if st := s.Stats(); st.Ops[OpSchema].Errors != 1 || st.Ops[OpQuery].Errors != 1 {
		t.Fatalf("schema errors = %d, query errors = %d, want 1 and 1", st.Ops[OpSchema].Errors, st.Ops[OpQuery].Errors)
	}
}

// TestServerInternalErrorMapping: untyped backend errors become
// CodeInternal without killing the session.
func TestServerInternalErrorMapping(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryErr: errors.New("boom")}, Config{})
	conn := dialTest(t, s)
	if code := conn.query(t, 1, &QueryRequest{SQL: "x"}).errCode(); code != CodeInternal {
		t.Fatalf("got %q, want internal", code)
	}
	// Session still alive.
	conn.send(t, &Request{ID: 2, Op: OpPing})
	if r := conn.await(t, 2); r.errCode() != "" {
		t.Fatalf("session died after error: %s", r.errCode())
	}
}

// TestUnencodableResultFailsRequestOnly: a result whose End frame cannot
// fit the connection's frame cap (a plan past it) ends its stream with
// frame_too_large; the session and later requests survive.
func TestUnencodableResultFailsRequestOnly(t *testing.T) {
	s := startTestServer(t, &stubBackend{
		cols:    []string{"x"},
		batches: [][]tuple.Row{{{tuple.I(1)}}},
		tail:    QueryTail{Plan: strings.Repeat("p", 16<<10)},
	}, Config{MaxFrame: 8 << 10})
	conn := dialTest(t, s)
	if code := conn.query(t, 1, &QueryRequest{SQL: "huge plan"}).errCode(); code != CodeFrameTooLarge {
		t.Fatalf("got %q, want frame_too_large", code)
	}
	conn.send(t, &Request{ID: 2, Op: OpPing})
	if r := conn.await(t, 2); r.errCode() != "" {
		t.Fatalf("session died after unencodable result: %s", r.errCode())
	}
}

// TestPipelineCapBackpressure: a connection cannot hold more than
// MaxPipelinedRequests handlers; the reader stops consuming frames
// until responses drain, and all requests still complete.
func TestPipelineCapBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Int64
	s := startTestServer(t, &stubBackend{}, Config{
		MaxConcurrentQueries: 64,
		MaxPipelinedRequests: 2,
		OnQueryStart:         func() { started.Add(1); <-gate },
	})
	conn := dialTest(t, s)
	const N = 6
	for i := 1; i <= N; i++ {
		conn.send(t, &Request{ID: uint64(i), Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	}
	time.Sleep(50 * time.Millisecond)
	if got := started.Load(); got > 2 {
		t.Fatalf("%d handlers started past the pipeline cap of 2", got)
	}
	close(gate)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 1; i <= N; i++ {
		if r := conn.await(t, uint64(i)); r.errCode() != "" {
			t.Fatalf("request %d: %s", i, r.errCode())
		}
	}
}

// TestAdmissionControl proves the semaphore bounds concurrent query
// executions: 8 pipelined queries against a limit of 2 never run more
// than 2 at once, and the observed peak actually reaches the limit.
func TestAdmissionControl(t *testing.T) {
	var inFlight, peak, over atomic.Int64
	gate := make(chan struct{})
	s := startTestServer(t, &stubBackend{}, Config{
		MaxConcurrentQueries: 2,
		OnQueryStart: func() {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if n > 2 {
				over.Add(1)
			}
			<-gate
			inFlight.Add(-1)
		},
	})
	conn := dialTest(t, s)
	const N = 8
	for i := 1; i <= N; i++ {
		conn.send(t, &Request{ID: uint64(i), Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	}
	// Let the first two executions start, then release everyone in waves.
	deadline := time.After(5 * time.Second)
	for inFlight.Load() < 2 {
		select {
		case <-deadline:
			t.Fatal("executions never reached the admission limit")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	for i := 1; i <= N; i++ {
		if r := conn.await(t, uint64(i)); r.errCode() != "" || len(r.rows) != 1 {
			t.Fatalf("query %d: %s, %d rows", i, r.errCode(), len(r.rows))
		}
	}
	if over.Load() > 0 {
		t.Fatalf("%d executions exceeded the admission limit", over.Load())
	}
	if peak.Load() != 2 {
		t.Fatalf("peak in-flight %d, want 2", peak.Load())
	}
	if st := s.Stats(); st.PeakInFlightQueries != 2 || st.MaxConcurrentQueries != 2 {
		t.Fatalf("status peak %d / max %d, want 2 / 2", st.PeakInFlightQueries, st.MaxConcurrentQueries)
	}
}

// TestRequestTimeout: a query slower than the server's RequestTimeout
// comes back as a timeout error, not a hung connection.
func TestRequestTimeout(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryDelay: 10 * time.Second},
		Config{RequestTimeout: 50 * time.Millisecond})
	conn := dialTest(t, s)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if code := conn.query(t, 1, &QueryRequest{SQL: "slow"}).errCode(); code != CodeTimeout {
		t.Fatalf("got %q, want timeout", code)
	}
}

// TestPerQueryTimeout: a client-requested budget below the server cap is
// honored.
func TestPerQueryTimeout(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryDelay: 10 * time.Second}, Config{})
	conn := dialTest(t, s)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if code := conn.query(t, 1, &QueryRequest{SQL: "slow", TimeoutMs: 50}).errCode(); code != CodeTimeout {
		t.Fatalf("got %q, want timeout", code)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("per-query timeout not honored")
	}
}

// TestPipelining: replies carry the right IDs even when a slow query is
// pipelined before a fast request (completion-order replies).
func TestPipelining(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	s := startTestServer(t, &stubBackend{}, Config{
		MaxConcurrentQueries: 4,
		OnQueryStart:         func() { once.Do(func() { <-gate }) }, // first query stalls
	})
	conn := dialTest(t, s)
	conn.send(t, &Request{ID: 100, Op: OpQuery, Query: &QueryRequest{SQL: "slow"}})
	time.Sleep(10 * time.Millisecond) // let it occupy its slot
	conn.send(t, &Request{ID: 101, Op: OpPing})
	resp, err := conn.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 101 {
		t.Fatalf("fast request did not overtake: got id %d", resp.ID)
	}
	close(gate)
	if r := conn.await(t, 100); r.errCode() != "" || len(r.rows) != 1 {
		t.Fatalf("stalled query: %s, %d rows", r.errCode(), len(r.rows))
	}
}

func TestServerCloseSeversSessions(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	conn := dialTest(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.readResponse(); err == nil {
		t.Fatal("read succeeded after server close")
	}
	if _, err := net.Dial("tcp", s.Addr().String()); err == nil {
		t.Fatal("dial succeeded after server close")
	}
}

// TestHandshakeRules pins the opening of a connection: the first frame
// must be a tagged hello at ProtocolVersion — anything else is refused
// with bad_request and the connection closes — and a publish is only
// accepted as a publish frame.
func TestHandshakeRules(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{})
	untagged := func(t *testing.T, c *testConn) {
		body := []byte(`{"id":1,"op":"hello","hello":{"version":3}}`)
		hdr := []byte{0, 0, 0, byte(len(body))}
		if _, err := c.Write(append(hdr, body...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		hello  bool                            // complete the handshake first
		send   func(t *testing.T, c *testConn) // then send this
		code   string                          // reply code ("" = success)
		closes bool                            // the server then hangs up
	}{
		{"query before hello", false, func(t *testing.T, c *testConn) {
			c.send(t, &Request{ID: 1, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
		}, CodeBadRequest, true},
		{"hello version 2", false, func(t *testing.T, c *testConn) {
			c.send(t, &Request{ID: 1, Op: OpHello, Hello: &HelloRequest{Version: 2}})
		}, CodeBadRequest, true},
		{"untagged hello", false, untagged, CodeBadRequest, true},
		{"untagged frame after hello", true, untagged, CodeBadRequest, true},
		{"json publish", true, func(t *testing.T, c *testConn) {
			body := `{"id":1,"op":"publish","publish":{"relation":"r","rows":[[1]]}}`
			c.sendFrame(t, FrameJSON, []byte(body))
		}, CodeBadRequest, false},
		{"hello then streamed query", true, func(t *testing.T, c *testConn) {
			c.send(t, &Request{ID: 1, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
		}, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, s)
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if tc.hello {
				c.hello(t, &HelloRequest{Version: ProtocolVersion})
			}
			tc.send(t, c)
			var code string
			if tc.closes {
				// The refusal is the connection's last frame.
				resp, err := c.readResponse()
				if err != nil {
					t.Fatalf("no refusal before close: %v", err)
				}
				if resp.Error != nil {
					code = resp.Error.Code
				}
			} else {
				code = c.await(t, 1).errCode()
			}
			if code != tc.code {
				t.Fatalf("reply code %q, want %q", code, tc.code)
			}
			ping, _ := AppendJSONFrame(nil, &Request{ID: 2, Op: OpPing}, MaxFrame)
			_, err := c.Write(ping)
			if err == nil {
				_, err = c.readResponse()
			}
			if closed := err != nil; closed != tc.closes {
				t.Fatalf("connection closed = %v (err %v), want %v", closed, err, tc.closes)
			}
		})
	}
}
