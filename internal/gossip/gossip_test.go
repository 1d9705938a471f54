package gossip

import (
	"context"
	"fmt"
	"testing"
	"time"

	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
)

func mkCluster(t *testing.T, n int) (*transport.Network, []*Gossiper) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	t.Cleanup(net.Shutdown)
	var ids []ring.NodeID
	var gs []*Gossiper
	for i := 0; i < n; i++ {
		ids = append(ids, ring.NodeID(fmt.Sprintf("g%d", i)))
	}
	for i := 0; i < n; i++ {
		ep, err := net.Join(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, New(ep, int64(i+1)))
	}
	for _, g := range gs {
		g.SetPeers(ids)
	}
	return net, gs
}

func waitEpoch(t *testing.T, gs []*Gossiper, want tuple.Epoch, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, g := range gs {
			if g.Current() != want {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, g := range gs {
		t.Logf("node %d at epoch %d", i, g.Current())
	}
	t.Fatalf("cluster did not converge to epoch %d", want)
}

func TestAdvancePropagates(t *testing.T) {
	_, gs := mkCluster(t, 5)
	for _, g := range gs {
		g.Start(5 * time.Millisecond)
		defer g.Stop()
	}
	gs[0].Advance(7)
	waitEpoch(t, gs, 7, 3*time.Second)
}

func TestNextIsMonotonic(t *testing.T) {
	_, gs := mkCluster(t, 3)
	e1 := gs[0].Next(0)
	e2 := gs[0].Next(0)
	if e2 <= e1 {
		t.Errorf("Next not monotonic: %d then %d", e1, e2)
	}
}

func TestNextAfterRemoteAdvance(t *testing.T) {
	_, gs := mkCluster(t, 4)
	for _, g := range gs {
		g.Start(5 * time.Millisecond)
		defer g.Stop()
	}
	gs[1].Advance(10)
	waitEpoch(t, gs, 10, 3*time.Second)
	if e := gs[2].Next(0); e != 11 {
		t.Errorf("Next after seeing 10 = %d, want 11", e)
	}
}

func TestMergeIgnoresStale(t *testing.T) {
	_, gs := mkCluster(t, 2)
	gs[0].Advance(9)
	gs[0].Advance(4) // stale
	if e := gs[0].Current(); e != 9 {
		t.Errorf("Current = %d, want 9", e)
	}
}

func TestConvergesWithDeadPeer(t *testing.T) {
	net, gs := mkCluster(t, 5)
	for _, g := range gs {
		g.Start(5 * time.Millisecond)
		defer g.Stop()
	}
	net.Kill("g4")
	gs[0].Advance(3)
	waitEpoch(t, gs[:4], 3, 3*time.Second)
}

// TestNextClaimsWithoutRaising: a claim leaves Current() alone, is past
// the floor, and reaches peers so that their claims land past it.
func TestNextClaimsWithoutRaising(t *testing.T) {
	_, gs := mkCluster(t, 3)
	e := gs[0].Next(4)
	if e != 5 || gs[0].Current() != 0 {
		t.Fatalf("Next(4) = %d with Current() %d, want 5 with 0", e, gs[0].Current())
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		gs[1].mu.Lock()
		c := gs[1].claimed
		gs[1].mu.Unlock()
		if c == e {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer heard claim %d, want %d", c, e)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if e2 := gs[1].Next(0); e2 != e+1 || gs[1].Current() != 0 {
		t.Fatalf("peer claim after %d = %d with Current() %d", e, e2, gs[1].Current())
	}
}

// TestAnnounceSkipsWaitForLaggingPeer: a peer that misses an Announce's
// deadline costs that one wait; later announces still reach it but do not
// wait for it until it is heard from again.
func TestAnnounceSkipsWaitForLaggingPeer(t *testing.T) {
	net, gs := mkCluster(t, 3)
	net.Hang("g2")
	announce := func(e tuple.Epoch) time.Duration {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		t0 := time.Now()
		gs[0].Announce(ctx, e)
		return time.Since(t0)
	}
	if d := announce(1); d < 100*time.Millisecond {
		t.Fatalf("first announce returned after %v, before its deadline", d)
	}
	if gs[1].Current() != 1 {
		t.Fatalf("answering peer at epoch %d, want 1", gs[1].Current())
	}
	if d := announce(2); d >= 100*time.Millisecond {
		t.Fatalf("second announce waited %v for the lagging peer", d)
	}
	net.Unhang("g2")
	gs[2].Advance(2) // the peer is heard from again
	deadline := time.Now().Add(3 * time.Second)
	for {
		gs[0].mu.Lock()
		lag := gs[0].lagging["g2"]
		gs[0].mu.Unlock()
		if !lag {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer still marked lagging after it spoke")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
