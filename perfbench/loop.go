package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"orchestra/client"
)

// env is the state one measured run shares across its clients.
type env struct {
	w    *workload
	d    *deployment
	m    *model
	sv   *staticView // nil for workloads whose data changes
	gen  *generator  // publisher's generator, positioned after set-up
	seed int64
}

// sample is one completed operation.
type sample struct {
	class    string
	dur      time.Duration
	inWindow bool // completed before the phase's deadline
	end      time.Time
	first    time.Duration // bulk: time to the first batch
	rows     int
	trace    *client.TraceSpan
	// published is a publish's batch, kept so a failed publish's rows
	// can explain reads that saw it.
	published []row
}

// pendingRead is a point lookup verified after the loop, when every
// publish it could have observed has been acknowledged.
type pendingRead struct {
	key   string
	epoch uint64
	rows  [][]any
}

// phase is the outcome of one closed-loop interval.
type phase struct {
	samples   []sample
	attempted int
	failed    int
	// span runs from the phase's start to the last operation completed
	// before its deadline; throughput is those operations over span.
	span     time.Duration
	wrong    []string
	reads    []pendingRead
	retries  uint64
	failures []string // first few failure messages, for the report
	// unacked holds the rows of failed publishes: each may or may not
	// have committed, so a read may see them without being wrong.
	unacked []row
}

func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.attempted += q.attempted
	p.span += q.span
	p.failed += q.failed
	p.wrong = append(p.wrong, q.wrong...)
	p.reads = append(p.reads, q.reads...)
	p.retries += q.retries
	if len(p.failures) < 5 {
		p.failures = append(p.failures, q.failures...)
	}
	p.unacked = append(p.unacked, q.unacked...)
}

// runPhase drives clientsN closed-loop clients for dur, or until each
// has run limit operations when limit is positive, and returns what
// they did. Every answer is checked; reads of changing data are checked
// after the loop against the model.
func (e *env) runPhase(ctx context.Context, dur time.Duration, limit int, trace bool, salt int64) (*phase, error) {
	cls := make([]*client.Client, clientsN)
	for i := range cls {
		cl, err := dialNode(e.d, i)
		if err != nil {
			for _, c := range cls[:i] {
				c.Close()
			}
			return nil, err
		}
		cls[i] = cl
	}
	defer func() {
		for _, c := range cls {
			c.Close()
		}
	}()
	parts := make([]*phase, clientsN)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &phase{}
			rng := rand.New(rand.NewSource(e.seed*1000003 + salt*101 + int64(i)))
			dl := &dealer{deck: append([]string(nil), e.w.decks[i%len(e.w.decks)]...)}
			before := cls[i].Counters().Retries
			for n := 0; (limit <= 0 || n < limit) && time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				e.one(ctx, cls[i], dl.draw(rng), rng, trace, deadline, p)
			}
			p.retries = cls[i].Counters().Retries - before
			parts[i] = p
		}(i)
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		out.merge(p)
	}
	for _, s := range out.samples {
		if s.inWindow {
			out.span = max(out.span, s.end.Sub(start))
		}
	}
	maybe := make(map[row]bool, len(out.unacked))
	for _, r := range out.unacked {
		maybe[r] = true
	}
	for _, r := range out.reads {
		if err := e.m.checkPoint(r.key, r.epoch, r.rows); err != nil {
			if len(r.rows) == 1 {
				if got, derr := decodeRow(r.rows[0]); derr == nil && maybe[got] {
					continue // a version of a publish whose outcome is unknown
				}
			}
			out.wrong = append(out.wrong, err.Error())
		}
	}
	out.reads = nil
	return out, ctx.Err()
}

// one runs a single operation of class.
func (e *env) one(ctx context.Context, cl *client.Client, class string, rng *rand.Rand, trace bool, deadline time.Time, p *phase) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	p.attempted++
	s := sample{class: class}
	t0 := time.Now()
	err := e.do(ctx, cl, rng, trace, &s, p)
	s.end = time.Now()
	s.dur = s.end.Sub(t0)
	s.inWindow = !s.end.After(deadline)
	switch {
	case err == nil:
		p.samples = append(p.samples, s)
	case isWrong(err):
		p.wrong = append(p.wrong, err.Error())
	default:
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, class+": "+err.Error())
		}
		if class == classPublish {
			p.unacked = append(p.unacked, s.published...)
		}
	}
}

const selectRows = "SELECT k, grp, v FROM " + relation

func (e *env) do(ctx context.Context, cl *client.Client, rng *rand.Rand, trace bool, s *sample, p *phase) error {
	opts := client.QueryOptions{Trace: trace}
	switch s.class {
	case classPoint, classLatest, classSnapshot:
		var key string
		switch s.class {
		case classPoint:
			key = e.m.randomKey(rng)
		case classLatest:
			key, opts.Epoch = e.m.randomLatest(rng)
		default:
			key, opts.Epoch = e.m.randomSnapshot(rng)
		}
		res, err := cl.QueryOpts(ctx, selectRows+" WHERE k = '"+key+"'", opts)
		if err != nil {
			return err
		}
		if opts.Epoch != 0 && res.Epoch != opts.Epoch {
			return &wrongAnswer{fmt.Sprintf("read pinned to epoch %d answered at %d", opts.Epoch, res.Epoch)}
		}
		p.reads = append(p.reads, pendingRead{key: key, epoch: res.Epoch, rows: res.Rows})
		s.rows, s.trace = len(res.Rows), res.Trace
	case classRange:
		lo, hi := e.sv.rangeBounds(rng.Intn(len(e.sv.byV) - rangeRows + 1))
		res, err := cl.QueryOpts(ctx, selectRows+" WHERE v BETWEEN "+itoa(lo)+" AND "+itoa(hi), opts)
		if err != nil {
			return err
		}
		s.rows, s.trace = len(res.Rows), res.Trace
		return wrong(e.sv.checkRange(lo, hi, res.Rows))
	case classAgg:
		res, err := cl.QueryOpts(ctx, "SELECT grp, COUNT(*) FROM "+relation+" GROUP BY grp", opts)
		if err != nil {
			return err
		}
		s.rows, s.trace = len(res.Rows), res.Trace
		return wrong(e.sv.checkAgg(res.Rows))
	case classTopK:
		x := e.sv.byV[topK+rng.Intn(len(e.sv.byV)-topK)].v
		res, err := cl.QueryOpts(ctx, selectRows+" WHERE v < "+itoa(x)+" ORDER BY v DESC LIMIT "+strconv.Itoa(topK), opts)
		if err != nil {
			return err
		}
		s.rows, s.trace = len(res.Rows), res.Trace
		return wrong(e.sv.checkTopK(x, res.Rows))
	case classBulk:
		return e.bulk(ctx, cl, opts, s)
	case classPublish:
		rows := e.gen.deltaBatch(e.m)
		s.published = rows
		epoch, err := cl.Publish(ctx, relation, wireRows(rows))
		if err != nil {
			return err
		}
		if err := e.m.apply(epoch, rows); err != nil {
			return &wrongAnswer{err.Error()}
		}
		s.rows = len(rows)
	default:
		return fmt.Errorf("unknown class %q", s.class)
	}
	return nil
}

// bulk streams the whole relation, timing the first batch and the last
// row, and checks the row count and checksum.
func (e *env) bulk(ctx context.Context, cl *client.Client, opts client.QueryOptions, s *sample) error {
	t0 := time.Now()
	st, err := cl.QueryStream(ctx, selectRows, opts)
	if err != nil {
		return err
	}
	defer st.Close()
	var sum scanSum
	for st.Next() {
		if s.first == 0 {
			s.first = time.Since(t0)
		}
		for _, r := range st.Batch() {
			if err := sum.add(r); err != nil {
				return wrong(err)
			}
		}
	}
	if err := st.Err(); err != nil {
		return err
	}
	s.rows, s.trace = sum.rows, st.Trace()
	return wrong(e.sv.checkScan(sum))
}

// payloadBytes is the user data in rows: the key and two int64s each.
func payloadBytes(rows []row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(len(r.k)) + 16
	}
	return n
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
