package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"orchestra/internal/tuple"
)

// colsStreamStub is a backend that emits through the columnar
// BatchStream hand-off.
type colsStreamStub struct {
	stubBackend
	cols    []string
	batches []*tuple.Batch
	tail    QueryTail
}

func (b *colsStreamStub) QueryStream(ctx context.Context, req *QueryRequest, out ResultStream) (*QueryTail, error) {
	if err := out.Columns(b.cols); err != nil {
		return nil, err
	}
	bs, ok := out.(BatchStream)
	if !ok {
		return nil, fmt.Errorf("stream is not batch-aware")
	}
	for _, batch := range b.batches {
		if err := bs.Batches(batch); err != nil {
			return nil, err
		}
	}
	t := b.tail
	return &t, nil
}

// identRows builds a deterministic mixed-width row set: int, float, and a
// string column whose lengths vary, so both the fixed-width and the
// per-row-hint cut paths run.
func identRows(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{
			tuple.I(int64(i * 7)),
			tuple.F(float64(i) / 3),
			tuple.S(fmt.Sprintf("value-%d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxx"[:i%29])),
		}
	}
	return rows
}

// identRowsFixed is the all-fixed-width variant (no string column).
func identRowsFixed(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.I(int64(i)), tuple.F(float64(i) * 1.5), tuple.I(int64(i % 3))}
	}
	return rows
}

func batchesOf(t *testing.T, rows []tuple.Row, sizes ...int) []*tuple.Batch {
	t.Helper()
	var out []*tuple.Batch
	lo := 0
	for _, n := range sizes {
		hi := lo + n
		if hi > len(rows) {
			hi = len(rows)
		}
		b := &tuple.Batch{}
		types := make([]tuple.Type, len(rows[0]))
		for i, v := range rows[0] {
			types[i] = v.T
		}
		b.ResetTypes(types)
		for _, r := range rows[lo:hi] {
			if err := b.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, b)
		lo = hi
	}
	if lo < len(rows) {
		t.Fatalf("sizes cover %d of %d rows", lo, len(rows))
	}
	return out
}

// capturedFrame is one raw frame read off a streamed query.
type capturedFrame struct {
	kind    FrameKind
	payload []byte
}

// captureStream runs one streamed query against backend and returns every
// frame until (and including) End. window is made large enough that no
// credits are needed.
func captureStream(t *testing.T, backend Backend, reqID uint64) []capturedFrame {
	t.Helper()
	s := startTestServer(t, backend, Config{MaxFrame: 64 << 10, StreamWindow: 4096})
	conn := dialRaw(t, s)
	conn.hello(t, &HelloRequest{Version: ProtocolVersion, Window: 4096})
	conn.send(t, &Request{ID: reqID, Op: OpQuery, Query: &QueryRequest{SQL: "q"}})
	var frames []capturedFrame
	for {
		kind, payload := conn.frame(t)
		frames = append(frames, capturedFrame{kind, append([]byte(nil), payload...)})
		if kind == FrameEnd {
			return frames
		}
	}
}

// TestStreamFramesRowVsBatchIdentical asserts the acceptance-critical
// property of the columnar wire path: for identical result content, the
// row-fed and batch-fed stream writers emit byte-identical frames —
// same chunk cuts, same encodings, same compression decisions.
func TestStreamFramesRowVsBatchIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []tuple.Row
	}{
		{"variable-width", identRows(3000)},
		{"fixed-width", identRowsFixed(5000)},
		{"single-row", identRows(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const reqID = 4242
			rowStub := &stubBackend{
				cols:    []string{"a", "b", "c"},
				batches: [][]tuple.Row{tc.rows[:len(tc.rows)/3], tc.rows[len(tc.rows)/3:]},
				tail:    QueryTail{Epoch: 9},
			}
			colStub := &colsStreamStub{
				cols:    []string{"a", "b", "c"},
				batches: batchesOf(t, tc.rows, len(tc.rows)/3, len(tc.rows)-len(tc.rows)/3),
				tail:    QueryTail{Epoch: 9},
			}
			rowFrames := captureStream(t, rowStub, reqID)
			colFrames := captureStream(t, colStub, reqID)
			if len(rowFrames) != len(colFrames) {
				t.Fatalf("row path emitted %d frames, batch path %d", len(rowFrames), len(colFrames))
			}
			if len(rowFrames) < 3 && tc.name != "single-row" {
				t.Fatalf("only %d frames: workload too small to exercise chunking", len(rowFrames))
			}
			for i := range rowFrames {
				if rowFrames[i].kind != colFrames[i].kind {
					t.Fatalf("frame %d: kind %v vs %v", i, rowFrames[i].kind, colFrames[i].kind)
				}
				if !bytes.Equal(rowFrames[i].payload, colFrames[i].payload) {
					t.Fatalf("frame %d (%v): payloads differ (%d vs %d bytes)",
						i, rowFrames[i].kind, len(rowFrames[i].payload), len(colFrames[i].payload))
				}
			}
		})
	}
}

// publishRecorder captures what the backend was handed.
type publishRecorder struct {
	stubBackend
	relation string
	pubID    uint64
	typed    []tuple.Row
}

func (b *publishRecorder) Publish(ctx context.Context, req *PublishRequest) (tuple.Epoch, error) {
	b.relation, b.pubID, b.typed = req.Relation, req.PublishID, req.TypedRows
	return 7, nil
}

// TestBinaryPublishFrame sends a FramePublish and checks the backend
// receives its relation, publish ID, and typed rows.
func TestBinaryPublishFrame(t *testing.T) {
	rec := &publishRecorder{}
	s := startTestServer(t, rec, Config{})
	conn := dialTest(t, s)

	rows := []tuple.Row{
		{tuple.S("bolt"), tuple.I(90)},
		{tuple.S("nut"), tuple.I(120)},
	}
	payload, err := AppendPublishPayload(nil, 31, 1234, "inv", rows, -1)
	if err != nil {
		t.Fatal(err)
	}
	conn.sendFrame(t, FramePublish, payload)
	resp, err := conn.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 31 || resp.Error != nil || resp.Epoch != 7 {
		t.Fatalf("publish response: %+v", resp)
	}
	if rec.relation != "inv" || rec.pubID != 1234 {
		t.Fatalf("backend saw relation=%q publish id %d", rec.relation, rec.pubID)
	}
	if len(rec.typed) != 2 || rec.typed[0][0].Str != "bolt" || rec.typed[1][1].I64 != 120 {
		t.Fatalf("typed rows: %v", rec.typed)
	}

	// A malformed publish frame with a readable ID answers bad_request on
	// that ID and keeps the connection usable.
	conn.sendFrame(t, FramePublish, AppendCancelPayload(nil, 32)) // ID but no relation/batch
	if resp, err = conn.readResponse(); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 32 || resp.Error == nil || resp.Error.Code != CodeBadRequest {
		t.Fatalf("malformed publish response: %+v", resp)
	}
	// Connection still fine: ping round-trips.
	conn.send(t, &Request{ID: 33, Op: OpPing})
	if resp, err = conn.readResponse(); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 33 || resp.Error != nil {
		t.Fatalf("ping after bad publish: %+v", resp)
	}
}
