// Package gossip maintains the CDSS's current epoch — the logical timestamp
// that advances after each batch of updates is published by a peer. Per
// paper §IV, "the current epoch can be determined through a simple 'gossip'
// protocol and does not require a single point of failure": each node keeps
// its highest-seen epoch and periodically pushes it to a few random peers;
// receiving a higher epoch adopts it. Messages also carry the highest epoch
// claimed by a publish that has not committed yet, so that publishes on
// different nodes claim distinct epochs without exposing unwritten ones.
package gossip

import (
	"context"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"

	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
)

// MsgEpoch is the transport message type used by the gossiper.
const MsgEpoch transport.MsgType = 0x00F0

// Fanout is how many random peers receive each gossip push.
const Fanout = 3

// Gossiper tracks and disseminates the current epoch on one node. Each
// message also piggybacks the sender's WAL-shipping sequence position,
// giving every node a cheap, eventually-fresh view of its peers'
// mutation counts for replication-lag accounting (see SeqFn/PeerSeqs).
type Gossiper struct {
	ep transport.Endpoint

	mu        sync.Mutex
	current   tuple.Epoch
	claimed   tuple.Epoch // highest epoch claimed by a publish, here or at a peer
	peers     []ring.NodeID
	peerSeqs  map[ring.NodeID]uint64
	lagging   map[ring.NodeID]bool // peers that missed an Announce; not waited for
	rng       *rand.Rand
	stop      chan struct{}
	stopped   bool
	onAdvance func(tuple.Epoch)
	seqFn     func() uint64
}

// New creates a gossiper bound to the endpoint and registers its message
// handler. Call SetPeers and Start to begin anti-entropy.
func New(ep transport.Endpoint, seed int64) *Gossiper {
	g := &Gossiper{
		ep:       ep,
		peerSeqs: make(map[ring.NodeID]uint64),
		lagging:  make(map[ring.NodeID]bool),
		rng:      rand.New(rand.NewSource(seed)),
		stop:     make(chan struct{}),
	}
	ep.Handle(MsgEpoch, func(from ring.NodeID, payload []byte) ([]byte, error) {
		g.receive(from, payload)
		// Reply with our (possibly newer) epoch so pulls work too.
		return g.encodeCurrent(), nil
	})
	return g
}

// SeqFn installs the source of this node's shipping sequence, included
// in every gossip message. Nil (the default) advertises 0.
func (g *Gossiper) SeqFn(fn func() uint64) {
	g.mu.Lock()
	g.seqFn = fn
	g.mu.Unlock()
}

// PeerSeqs returns the most recent sequence position gossiped by each
// peer. The view is eventually consistent — a peer's real position is
// at least the reported one.
func (g *Gossiper) PeerSeqs() map[ring.NodeID]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[ring.NodeID]uint64, len(g.peerSeqs))
	for id, s := range g.peerSeqs {
		out[id] = s
	}
	return out
}

func (g *Gossiper) noteSeq(id ring.NodeID, seq uint64) {
	g.mu.Lock()
	if seq > g.peerSeqs[id] {
		g.peerSeqs[id] = seq
	}
	g.mu.Unlock()
}

// Current returns the highest epoch this node has seen.
func (g *Gossiper) Current() tuple.Epoch {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.current
}

// OnAdvance registers a callback fired (outside the gossiper's lock)
// whenever the local epoch rises — however it was learned: a local
// publish, a gossip push from a peer, or a pull. The node uses it to
// persist the epoch in its durable store.
func (g *Gossiper) OnAdvance(fn func(tuple.Epoch)) {
	g.mu.Lock()
	g.onAdvance = fn
	g.mu.Unlock()
}

// SetPeers replaces the peer set used for pushes.
func (g *Gossiper) SetPeers(peers []ring.NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.peers = nil
	for _, p := range peers {
		if p != g.ep.ID() {
			g.peers = append(g.peers, p)
		}
	}
}

// Advance raises the local epoch to at least e and pushes it to Fanout
// random peers immediately. It returns the (possibly higher) local epoch.
func (g *Gossiper) Advance(e tuple.Epoch) tuple.Epoch {
	g.merge(e)
	g.push()
	return g.Current()
}

// Announce is Advance for an epoch this node just published: it raises
// the local epoch to at least e, sends it to every peer and waits, bounded
// by ctx, until each has merged it. A publish that returns is then
// visible to unpinned queries at every peer that answered in time. One
// that did not learns the epoch later through periodic gossip, and later
// announces do not wait for it until it is heard from again. It returns
// the (possibly higher) local epoch.
func (g *Gossiper) Announce(ctx context.Context, e tuple.Epoch) tuple.Epoch {
	payload := g.encodeEpoch(max(g.Current(), e))
	var wait, nowait []ring.NodeID
	g.mu.Lock()
	for _, p := range g.peers {
		if g.lagging[p] {
			nowait = append(nowait, p)
		} else {
			wait = append(wait, p)
		}
	}
	g.mu.Unlock()
	for _, t := range nowait {
		_ = g.ep.Send(t, MsgEpoch, payload)
	}
	var wg sync.WaitGroup
	for _, t := range wait {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.ep.Request(ctx, t, MsgEpoch, payload)
			if err != nil {
				g.mu.Lock()
				g.lagging[t] = true
				g.mu.Unlock()
				return
			}
			g.receive(t, resp)
		}()
	}
	g.merge(e) // persists locally while the peers merge
	wg.Wait()
	return g.Current()
}

// Next claims the epoch of a publish (§IV: "a logical timestamp (epoch)
// that advances after each batch of updates is published by a peer"): one
// past floor, past everything this node has seen and past every claim it
// has made or heard of. The claim does not raise Current() — the publisher
// does that with Announce once the epoch's data is reachable — but it is
// pushed to Fanout random peers at once and rides on every later gossip
// message, so that publishes on other nodes claim past it.
func (g *Gossiper) Next(floor tuple.Epoch) tuple.Epoch {
	g.mu.Lock()
	e := max(g.current, g.claimed, floor) + 1
	g.claimed = e
	g.mu.Unlock()
	g.push()
	return e
}

// receive merges a gossip message: 8 bytes carry the epoch, 16 add the
// sender's shipping sequence, 24 add its highest claim.
func (g *Gossiper) receive(from ring.NodeID, msg []byte) {
	g.mu.Lock()
	delete(g.lagging, from)
	g.mu.Unlock()
	if len(msg) >= 8 {
		g.merge(tuple.Epoch(binary.BigEndian.Uint64(msg)))
	}
	if len(msg) >= 16 {
		g.noteSeq(from, binary.BigEndian.Uint64(msg[8:]))
	}
	if len(msg) >= 24 {
		c := tuple.Epoch(binary.BigEndian.Uint64(msg[16:]))
		g.mu.Lock()
		g.claimed = max(g.claimed, c)
		g.mu.Unlock()
	}
}

func (g *Gossiper) merge(e tuple.Epoch) {
	g.mu.Lock()
	raised := e > g.current
	if raised {
		g.current = e
	}
	fn := g.onAdvance
	g.mu.Unlock()
	if raised && fn != nil {
		fn(e)
	}
}

func (g *Gossiper) encodeCurrent() []byte { return g.encodeEpoch(g.Current()) }

// encodeEpoch builds a gossip message carrying e, this node's shipping
// sequence and its highest claim.
func (g *Gossiper) encodeEpoch(e tuple.Epoch) []byte {
	g.mu.Lock()
	seqFn, claimed := g.seqFn, g.claimed
	g.mu.Unlock()
	var seq uint64
	if seqFn != nil {
		seq = seqFn()
	}
	b := make([]byte, 24)
	binary.BigEndian.PutUint64(b, uint64(e))
	binary.BigEndian.PutUint64(b[8:], seq)
	binary.BigEndian.PutUint64(b[16:], uint64(claimed))
	return b
}

// push sends the current epoch to up to Fanout random peers.
func (g *Gossiper) push() {
	g.mu.Lock()
	n := len(g.peers)
	var targets []ring.NodeID
	if n > 0 {
		perm := g.rng.Perm(n)
		for i := 0; i < n && i < Fanout; i++ {
			targets = append(targets, g.peers[perm[i]])
		}
	}
	g.mu.Unlock()
	payload := g.encodeCurrent()
	for _, t := range targets {
		// Best effort: unreachable peers learn the epoch later.
		_ = g.ep.Send(t, MsgEpoch, payload)
	}
}

// Sync pulls the current epoch from the given peers, adopting the highest
// seen. Joining nodes use this to catch up immediately instead of waiting
// for the next anti-entropy round.
func (g *Gossiper) Sync(ctx context.Context, peers []ring.NodeID) tuple.Epoch {
	for _, p := range peers {
		if p == g.ep.ID() {
			continue
		}
		if resp, err := g.ep.Request(ctx, p, MsgEpoch, g.encodeCurrent()); err == nil {
			g.receive(p, resp)
		}
	}
	return g.Current()
}

// Start launches periodic anti-entropy pushes at the given interval.
func (g *Gossiper) Start(interval time.Duration) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-ticker.C:
				g.push()
			}
		}
	}()
}

// Stop halts anti-entropy.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		close(g.stop)
	}
	g.mu.Unlock()
}
