package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"orchestra/client"
)

const (
	relation   = "load"
	groups     = 64  // distinct grp values
	rangeRows  = 500 // rows a query-mix range scan returns
	topK       = 10  // LIMIT of the bulk-stream top-K class
	seedRows   = 10000
	deltaRows  = 100 // rows per publish-history publish: half new keys, half updates
	clientsN   = 2   // closed-loop clients (nproc on the reference host)
	opTimeout  = 60 * time.Second
	setupLimit = 120 * time.Second
)

var relColumns = []string{"k:string", "grp:int", "v:int"}

// Operation classes. Each names a row of the human-readable report.
const (
	classPoint    = "point"
	classSnapshot = "snapshot"
	classLatest   = "latest"
	classRange    = "range"
	classBulk     = "bulk"
	classAgg      = "agg"
	classTopK     = "topk"
	classPublish  = "publish"
)

// workload is one traffic mix over one data shape.
type workload struct {
	name string
	// durable runs the nodes with -data (WAL, default -sync always).
	durable bool
	// seedBatches publishes of seedRows rows, then history publishes of
	// deltaRows rows, make up set-up.
	seedBatches int
	history     int
	// classes are the operation classes the loop runs, in report order.
	classes []string
	// read is the workload's small-answer read class and focus the class
	// it is built around; their medians are read_p50_ms and
	// focus_p50_ms.
	read, focus string
	// decks give each client's class mix: a client draws its classes
	// from its deck (decks[client % len(decks)]) in a shuffled order,
	// reshuffling when it is used up, so every run has the exact mix and
	// throughput does not drift with the luck of the draw.
	decks [][]string
}

// workloads, in BENCHMARK.json order. README.md gives the reasoning in
// full; in short, each stresses layers the others leave idle.
var workloads = []*workload{
	// Small answers from a shallow relation whose index (about 55 pages
	// per node) fits the 256-page decoded-page cache: fixed per-query
	// costs dominate, and publish and WAL sit idle — the control for
	// publish-path changes.
	{
		name:        "query-mix",
		seedBatches: 5,
		classes:     []string{classPoint, classRange},
		read:        classPoint,
		focus:       classRange,
		decks:       [][]string{append(repeat(classPoint, 7), repeat(classRange, 3)...)},
	},
	// Large answers over an index (about 350 pages per node) larger than
	// the page cache: the stream writer, ship codecs, client decode,
	// final operators and cache misses do most of the work.
	{
		name:        "bulk-stream",
		seedBatches: 15,
		classes:     []string{classBulk, classAgg, classTopK},
		read:        classTopK,
		focus:       classBulk,
		decks:       [][]string{{classBulk, classAgg, classTopK}},
	},
	// Durable publishes beside point and snapshot reads over ~200 epochs
	// of copy-on-write history: the only workload on the publish path,
	// and the same point class as query-mix over deep history.
	{
		name:        "publish-history",
		durable:     true,
		seedBatches: 2,
		history:     200,
		classes:     []string{classPublish, classPoint, classSnapshot},
		read:        classPoint,
		focus:       classPublish,
		// Client 0 publishes back to back; client 1 reads.
		decks: [][]string{{classPublish}, append(repeat(classPoint, 4), classSnapshot)},
	},
	// publish-history with its current-epoch reads pinned to the newest
	// acknowledged epoch instead. At this commit a publish's epoch
	// becomes current on every node before the publish is visible, so
	// some current-epoch reads of publish-history return the previous
	// version under the new epoch and those runs fail (README.md, "Gated
	// workloads and known defects"). This variant measures the same
	// layers with reads the defect cannot reach; BENCHMARK.json gates it
	// until the defect is fixed, and publish-history keeps exposing it.
	{
		name:        "publish-pinned",
		durable:     true,
		seedBatches: 2,
		history:     200,
		classes:     []string{classPublish, classLatest, classSnapshot},
		read:        classLatest,
		focus:       classPublish,
		decks:       [][]string{{classPublish}, append(repeat(classLatest, 4), classSnapshot)},
	},
}

func repeat(class string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = class
	}
	return out
}

// dealer deals one client's classes from its deck.
type dealer struct {
	deck []string
	next int
}

func (d *dealer) draw(rng *rand.Rand) string {
	if d.next == 0 {
		rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	c := d.deck[d.next]
	d.next = (d.next + 1) % len(d.deck)
	return c
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generator makes the benchmark's inputs from the seed: unique keys,
// unique v values (so a v range selects an exact row count), update
// targets.
type generator struct {
	rng   *rand.Rand
	keyN  int
	usedV map[int64]struct{}
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), usedV: make(map[int64]struct{})}
}

func (g *generator) freshV() int64 {
	for {
		v := g.rng.Int63n(1 << 40)
		if _, dup := g.usedV[v]; !dup {
			g.usedV[v] = struct{}{}
			return v
		}
	}
}

// newRow makes a row with a key never used before. Keys carry a
// sequence number so they are unique by construction, and a suffix
// mixed from it. The key set, and with it the hash placement of rows on
// pages and fragments, is the same for every seed: with seeded keys the
// placement alone moved the query-mix range-scan median by up to 30%
// from seed to seed, more than the changes the benchmark must detect.
func (g *generator) newRow() row {
	g.keyN++
	k := "k" + strconv.Itoa(g.keyN) + "-" + strconv.FormatUint(uint64(uint32(g.keyN)*2654435761), 36)
	return row{k: k, grp: int64(g.rng.Intn(groups)), v: g.freshV()}
}

// deltaBatch makes one publish-history publish: deltaRows/2 new keys and
// deltaRows/2 updates of distinct existing keys.
func (g *generator) deltaBatch(m *model) []row {
	out := make([]row, 0, deltaRows)
	for i := 0; i < deltaRows/2; i++ {
		out = append(out, g.newRow())
	}
	seen := make(map[string]struct{}, deltaRows/2)
	for len(seen) < deltaRows/2 {
		k := m.randomKey(g.rng)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, row{k: k, grp: int64(g.rng.Intn(groups)), v: g.freshV()})
	}
	return out
}

func wireRows(rows []row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = []any{r.k, r.grp, r.v}
	}
	return out
}

// batches returns the set-up publishes of w in order.
func (w *workload) batches(g *generator, m *model, publish func([]row) error) error {
	for b := 0; b < w.seedBatches; b++ {
		rows := make([]row, seedRows)
		for i := range rows {
			rows[i] = g.newRow()
		}
		if err := publish(rows); err != nil {
			return err
		}
	}
	for h := 0; h < w.history; h++ {
		if err := publish(g.deltaBatch(m)); err != nil {
			return err
		}
	}
	return nil
}

// setup launches a deployment under dir and loads w's data through the
// client, ending with a verified COUNT(*). It returns the deployment,
// the oracle model, the generator (positioned after set-up), and the
// set-up time, which excludes nothing but the build.
func setup(ctx context.Context, w *workload, nodeBin, dir string, seed int64) (*deployment, *model, *generator, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, setupLimit)
	defer cancel()
	t0 := time.Now()
	d, err := startDeployment(ctx, nodeBin, dir, w.durable)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	fail := func(err error) (*deployment, *model, *generator, time.Duration, error) {
		if aerr := d.alive(); aerr != nil {
			err = fmt.Errorf("%w; %v", err, aerr)
		}
		d.stop()
		return nil, nil, nil, 0, err
	}
	cl, err := dialNode(d, 0)
	if err != nil {
		return fail(err)
	}
	defer cl.Close()
	if err := cl.Create(ctx, relation, relColumns); err != nil {
		return fail(fmt.Errorf("create: %w", err))
	}
	m := newModel()
	g := newGenerator(seed)
	err = w.batches(g, m, func(rows []row) error {
		e, err := cl.Publish(ctx, relation, wireRows(rows))
		if err != nil {
			return fmt.Errorf("set-up publish: %w", err)
		}
		return m.apply(e, rows)
	})
	if err != nil {
		return fail(err)
	}
	if err := verifyCount(ctx, cl, m); err != nil {
		return fail(err)
	}
	return d, m, g, time.Since(t0), nil
}

// verifyCount checks COUNT(*) at the current epoch against the model.
func verifyCount(ctx context.Context, cl *client.Client, m *model) error {
	res, err := cl.Query(ctx, "SELECT COUNT(*) FROM "+relation)
	if err != nil {
		return fmt.Errorf("count: %w", err)
	}
	want := m.keyCount()
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return &wrongAnswer{fmt.Sprintf("count: got %v, want %d", res.Rows, want)}
	}
	if n, ok := res.Rows[0][0].(int64); !ok || n != int64(want) {
		return &wrongAnswer{fmt.Sprintf("count: got %v, want %d", res.Rows[0][0], want)}
	}
	return nil
}

// wrongAnswer is an answer the oracle rejected; it fails the run.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return "wrong answer: " + e.msg }

func isWrong(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

func wrong(err error) error {
	if err == nil {
		return nil
	}
	return &wrongAnswer{err.Error()}
}

// dialNode connects one closed-loop client to node i's served endpoint.
// PoolSize 1: one connection per client, one request at a time.
func dialNode(d *deployment, i int) (*client.Client, error) {
	return client.Dial(d.addrs()[i%len(d.nodes)], client.Options{PoolSize: 1})
}

// setupDir names the directory of set-up repetition n under work.
func setupDir(work string, n int) string {
	return filepath.Join(work, fmt.Sprintf("deploy%d", n))
}
