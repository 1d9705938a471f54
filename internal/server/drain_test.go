package server

import (
	"context"
	"net"
	"testing"
	"time"

	"orchestra/internal/tuple"
)

func TestHealthOp(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{
		Peers: func() []string { return []string{"a:1", "b:2"} },
	})
	conn := dialTest(t, s)
	conn.send(t, &Request{ID: 1, Op: OpHealth})
	resp := conn.await(t, 1).resp
	if resp.Error != nil {
		t.Fatalf("health: %v", resp.Error)
	}
	h := resp.Health
	if h == nil {
		t.Fatal("health response missing payload")
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
	if len(h.Peers) != 2 || h.Peers[0] != "a:1" || h.Peers[1] != "b:2" {
		t.Fatalf("peers = %v", h.Peers)
	}
	if h.Connections != 1 {
		t.Fatalf("connections = %d, want 1", h.Connections)
	}
}

// TestShutdownDrains: Shutdown stops accepting, lets in-flight work
// finish, rejects new work with CodeUnavailable, and keeps answering
// health (reporting draining) so clients can steer away.
func TestShutdownDrains(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryDelay: 300 * time.Millisecond}, Config{})
	conn := dialTest(t, s)

	// In-flight query that outlives the start of the drain.
	conn.send(t, &Request{ID: 1, Op: OpQuery, Query: &QueryRequest{SQL: "slow"}})
	// Give the server a moment to start the handler before draining.
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New connections are refused once the listener is down.
	if c, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("dial succeeded during drain")
	}

	// New work on the existing session is refused with the retryable
	// proof-of-non-execution code.
	conn.send(t, &Request{ID: 2, Op: OpQuery, Query: &QueryRequest{SQL: "late"}})
	// So is a publish, refused before its rows are looked at.
	payload, err := AppendPublishPayload(nil, 4, 0, "r", []tuple.Row{{tuple.I(1)}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	conn.sendFrame(t, FramePublish, payload)
	// Health still answers, reporting the drain.
	conn.send(t, &Request{ID: 3, Op: OpHealth})

	refused := conn.await(t, 2)
	if refused.errCode() != CodeUnavailable || len(refused.rows) != 0 {
		t.Fatalf("late query: got %q with %d rows, want %s", refused.errCode(), len(refused.rows), CodeUnavailable)
	}
	if code := conn.await(t, 4).errCode(); code != CodeUnavailable {
		t.Fatalf("late publish: got %q, want %s", code, CodeUnavailable)
	}
	health := conn.await(t, 3).resp
	if health.Error != nil || health.Health == nil || health.Health.Status != "draining" {
		t.Fatalf("health during drain: %+v %+v", health.Error, health.Health)
	}

	// The in-flight query still completes successfully.
	if slow := conn.await(t, 1); slow.errCode() != "" || len(slow.rows) != 1 {
		t.Fatalf("in-flight query failed during drain: %q, %d rows", slow.errCode(), len(slow.rows))
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownTimeout: a drain that cannot finish in time returns the
// context error and hard-closes the server.
func TestShutdownTimeout(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryDelay: 10 * time.Second}, Config{})
	conn := dialTest(t, s)
	conn.send(t, &Request{ID: 1, Op: OpQuery, Query: &QueryRequest{SQL: "stuck"}})
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown error = %v, want deadline exceeded", err)
	}
}
