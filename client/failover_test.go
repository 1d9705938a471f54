package client_test

import (
	"context"
	"testing"
	"time"

	"orchestra"
	"orchestra/client"
	"orchestra/internal/netfault"
)

// twoEndpointCluster serves one embedded cluster on two endpoints.
func twoEndpointCluster(t *testing.T) (*orchestra.Cluster, *orchestra.Server, *orchestra.Server) {
	t.Helper()
	c, err := orchestra.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	srv1, err := c.Serve("127.0.0.1:0", orchestra.ServeOptions{Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv1.Close() })
	srv2, err := c.Serve("127.0.0.1:0", orchestra.ServeOptions{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	return c, srv1, srv2
}

// TestMembershipDiscovery: a client dialed at one endpoint learns the
// other from the advertised peer list.
func TestMembershipDiscovery(t *testing.T) {
	_, srv1, srv2 := twoEndpointCluster(t)
	cl, err := client.Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		members := cl.Members()
		if len(members) >= 2 {
			found := false
			for _, m := range members {
				if m == srv2.Addr() {
					found = true
				}
			}
			if found {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("second endpoint never discovered; members = %v", cl.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverOnEndpointLoss: with one endpoint gone hard (closed, new
// dials refused), calls fail over to the surviving endpoint and the
// failover is visible in the client's counters.
func TestFailoverOnEndpointLoss(t *testing.T) {
	c, srv1, srv2 := twoEndpointCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := c.CreateRelation(orchestra.NewSchema("inv", "item:string", "qty:int").Key("item")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("inv", orchestra.Rows{{"bolt", 90}, {"nut", 120}}); err != nil {
		t.Fatal(err)
	}

	// Seed both endpoints explicitly: no reliance on refresh timing.
	cl, err := client.Dial(srv1.Addr(), client.Options{
		Endpoints:       []string{srv2.Addr()},
		RefreshInterval: -1, // membership is fully seeded; keep the test deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	srv1.Close()

	// Every query must succeed: dial failures against the dead endpoint
	// re-route to the survivor.
	for i := 0; i < 6; i++ {
		res, err := cl.QueryOpts(ctx, "SELECT item, qty FROM inv WHERE qty > 100", client.QueryOptions{})
		if err != nil {
			t.Fatalf("query %d failed despite a live endpoint: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("query %d: got %d rows, want 1", i, len(res.Rows))
		}
		if res.Endpoint != srv2.Addr() {
			t.Fatalf("query %d served by %q, want survivor %q", i, res.Endpoint, srv2.Addr())
		}
	}
	// Publishes survive too (dial errors prove non-execution).
	if _, err := cl.Publish(ctx, "inv", [][]any{{"washer", 500}}); err != nil {
		t.Fatalf("publish after endpoint loss: %v", err)
	}
	// The dead endpoint surfaced either as a broken pooled connection
	// (retry + failover) or as a refused dial; both must be counted.
	ctr := cl.Counters()
	if ctr.Retries == 0 && ctr.DialErrors == 0 {
		t.Fatalf("endpoint loss left no trace in counters: %+v", ctr)
	}
	if ctr.Failovers == 0 && ctr.DialErrors == 0 {
		t.Fatalf("no failover recorded: %+v", ctr)
	}
}

// TestDrainingEndpointRedirects: a draining endpoint refuses new work
// with the unavailable code; clients re-route — queries and publishes —
// with zero caller-visible failures, and the publish applies exactly
// once.
func TestDrainingEndpointRedirects(t *testing.T) {
	c, srv1, srv2 := twoEndpointCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := c.CreateRelation(orchestra.NewSchema("kv", "k:string", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}

	cl, err := client.Dial(srv1.Addr(), client.Options{
		Endpoints:       []string{srv2.Addr()},
		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Pin the round-robin onto srv1 by exhausting pooled state, then
	// drain srv1: in-flight work finishes, new work re-routes.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for i := 0; i < 4; i++ {
		if _, err := cl.Publish(ctx, "kv", [][]any{{string(rune('a' + i)), i}}); err != nil {
			t.Fatalf("publish %d during drain: %v", i, err)
		}
	}
	res, err := cl.QueryOpts(ctx, "SELECT k, v FROM kv", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (drain must not double- or under-apply)", len(res.Rows))
	}
}

// TestQueryStreamSurvivesStartFailure: a stream started against a dead
// endpoint transparently starts on another.
func TestQueryStreamSurvivesStartFailure(t *testing.T) {
	c, srv1, srv2 := twoEndpointCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := c.CreateRelation(orchestra.NewSchema("s", "k:string", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("s", orchestra.Rows{{"x", 1}, {"y", 2}}); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv1.Addr(), client.Options{
		Endpoints:       []string{srv2.Addr()},
		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv1.Close()

	st, err := cl.QueryStream(ctx, "SELECT k, v FROM s")
	if err != nil {
		t.Fatalf("stream start did not fail over: %v", err)
	}
	defer st.Close()
	rows := 0
	for st.Next() {
		rows += len(st.Batch())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("got %d rows, want 2", rows)
	}
	if st.Endpoint() != srv2.Addr() {
		t.Fatalf("stream served by %q, want %q", st.Endpoint(), srv2.Addr())
	}
}

// TestPublishRetryAfterLostAckDedups: a publish the server committed but
// whose acknowledgement was lost to a connection reset is retried on
// another endpoint and deduplicated by its publish ID — the caller gets
// the original epoch and the batch is applied exactly once.
func TestPublishRetryAfterLostAckDedups(t *testing.T) {
	c, srv1, srv2 := twoEndpointCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.CreateRelation(orchestra.NewSchema("acked", "k:string", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	proxy, err := netfault.New("127.0.0.1:0", srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// The proxy endpoint is seeded first, so the first attempt goes
	// through it.
	cl, err := client.Dial(proxy.Addr(), client.Options{
		Endpoints:       []string{srv2.Addr()},
		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Hold every forwarded chunk long enough to sever the connection
	// after the publish commits but before its response gets through.
	proxy.SetFaults(netfault.Faults{Delay: 300 * time.Millisecond})
	committed := make(chan orchestra.Epoch, 1)
	go func() {
		for ctx.Err() == nil {
			if res, err := c.Query("SELECT k FROM acked"); err == nil && len(res.Rows) == 1 {
				committed <- c.CurrentEpoch()
				proxy.ResetAll()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	epoch, err := cl.Publish(ctx, "acked", [][]any{{"once", 1}})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if ctr := cl.Counters(); ctr.Retries == 0 {
		t.Fatalf("publish was not retried (counters %+v): the reset missed the commit window", ctr)
	}
	first := uint64(<-committed)
	if cur := uint64(c.CurrentEpoch()); epoch != first || cur != first {
		t.Fatalf("publish returned epoch %d, cluster at %d, first commit at %d: the retry applied the batch again", epoch, cur, first)
	}
}
