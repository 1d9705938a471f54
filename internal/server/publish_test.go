package server

import (
	"context"
	"testing"

	"orchestra/internal/tuple"
)

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
