// Command perfbench is orchestra's end-to-end benchmark. It builds
// nothing itself: run.sh builds orchestra-node from the checkout and
// this program, then runs it. Each run launches a 3-process deployment
// (three orchestra-node processes talking TCP, each serving the client
// wire protocol), loads one workload's data through the public client
// package, drives it with a closed loop of two clients, checks every
// answer against a model of the generated data, and prints the
// workload's metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// It runs on Linux only: nodes get Pdeathsig and memory is read from
// /proc.
//
// See README.md in this directory for the workloads, the metrics and
// how to run one workload or the traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// warmupOps is how many operations each client runs before measuring,
// so page caches fill and lazy start-up work finishes; its answers are
// checked too. A fixed count, not a time, so every run measures from
// the same history depth and reads node memory after the same work.
const warmupOps = 20

// setups is how many times a run sets up from scratch; setup_s is the
// median.
const setups = 3

// A measured window in which the hypervisor took more than maxSteal of
// the machine's CPU time is measured again, up to measureTries windows
// per deployment, and the least-disturbed one is timed. On a shared host
// episodes of steal lasting tens of seconds slowed whole runs by 20-100%.
const (
	maxSteal     = 0.03
	measureTries = 3
)

// endToEnd lists the metrics of an untraced run, each with its unit.
// Every workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"focus_p50_ms", "ms"},
	{"node_rss_peak_mb", "MB"},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int // set-ups per run; main uses the setups constant
	nodeBin  string
	work     string
}

func main() {
	// Nodes are started from the main goroutine, locked to the main
	// thread, so their Pdeathsig is tied to the process, not to a
	// runtime thread that may exit.
	runtime.LockOSThread()
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: keys, update targets and query parameters derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run (a traced run measures this long untraced and as long traced, in alternating one-second slices)")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.nodeBin, "node-bin", ".bench_build/orchestra-node", "orchestra-node binary built from the commit under test")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for node data and logs (removed after each run)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = setups
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive, -trace 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		res, err := run(ctx, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := res.print(os.Stdout, cfg.workload != "all"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// result is one run's outcome. The JSON fields are the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload  string
	seed      int64
	dataSeeds []int64
	flags     []string
	report    []string // human-readable lines, metric name first
	wrong     []string
	failures  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report. A run with a wrong answer prints the answers
// and no result line; contract adds the JSON line last.
func (r *result) print(out io.Writer, contract bool) error {
	fmt.Fprintf(out, "# workload %s seed %d data seeds %v node flags: %s\n", r.workload, r.seed, r.dataSeeds, strings.Join(r.flags, " "))
	for _, l := range r.report {
		fmt.Fprintf(out, "%s %s\n", r.workload, l)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "# failure: %s\n", f)
	}
	if !r.Correct {
		for i, w := range r.wrong {
			if i == 10 {
				fmt.Fprintf(out, "# ... %d more wrong answers\n", len(r.wrong)-i)
				break
			}
			fmt.Fprintf(out, "# %s\n", w)
		}
		return nil
	}
	if !contract {
		return nil
	}
	b, err := json.Marshal(r) // fails on a NaN or infinite metric
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// run performs one benchmark run of w on cfg.setups deployments in
// turn, each set up from scratch with its own data seed: set-up, a
// warm-up of warmupOps operations per client, then that deployment's
// share of the measured loop — or, traced, of the alternating untraced
// and traced slices. Samples are pooled over the deployments, so a run
// averages over data sets as well as over time.
func run(ctx context.Context, w *workload, cfg config) (*result, error) {
	// A run must end (passing or failing) well within the harness's
	// limit even if a set-up or an operation hangs.
	measure := time.Duration(cfg.seconds) * time.Second
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second+2*measure)
	defer cancel()
	if _, err := os.Stat(cfg.nodeBin); err != nil {
		return nil, fmt.Errorf("node binary: %w", err)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	a := &runAcc{all: &phase{}, traced: &phase{}}
	for i := 0; i < cfg.setups; i++ {
		if err := a.deploy(ctx, w, cfg, work, i); err != nil {
			return nil, err
		}
	}
	res := &result{workload: w.name, seed: cfg.seed, dataSeeds: a.dataSeeds, flags: a.flags, Metrics: map[string]metric{}}
	// End-to-end metrics always come from untraced intervals.
	untraced := &phase{}
	for _, p := range a.parts {
		untraced.merge(p)
	}
	res.Attempted = untraced.attempted + a.dropAttempted
	res.Failed = untraced.failed + a.dropFailed
	if cfg.trace {
		res.Attempted += a.traced.attempted
		res.Failed += a.traced.failed
		rs, err := replayPublishes(w, dataSeed(cfg.seed, 0), filepath.Join(work, "replay"))
		if err != nil {
			return nil, err
		}
		lm := layerMetrics(layerInputs{untraced: untraced, traced: a.traced, status: a.status, replay: rs})
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{Value: lm[l.name], Unit: l.unit}
			res.report = append(res.report, fmt.Sprintf("%s %.6g %s", l.name, lm[l.name], l.unit))
		}
	}
	res.Correct = len(a.all.wrong) == 0
	res.wrong = a.all.wrong
	res.failures = a.all.failures
	e2e := endToEndMetrics(w, a.parts, a.setupS, a.rssMB)
	e2e.add("node_rss_end_mb", median(a.rssEndMB), "MB", len(a.rssEndMB))
	if !cfg.trace {
		e2e.add("cpu_steal_share", median(a.steal), "ratio", len(a.steal))
		e2e.add("remeasured_windows", float64(a.remeasured), "count", len(a.steal)+a.remeasured)
	}
	if a.loopRows > 0 {
		e2e.add("node_rss_growth_kb_per_published_row", a.growthMB*1024/float64(a.loopRows), "KB", a.loopRows)
	}
	if !cfg.trace {
		for _, x := range endToEnd {
			res.Metrics[x.name] = metric{Value: e2e.values[x.name], Unit: x.unit}
		}
	}
	res.report = append(e2e.lines, res.report...)
	return res, nil
}

// dataSeed is the data seed of deployment i of a run with seed: every
// deployment of every seed loads a different data set.
func dataSeed(seed int64, i int) int64 { return seed*setups + int64(i) }

// share is deployment i's part of n, split evenly over the deployments.
func share(n int64, i, deployments int) int64 {
	return n*int64(i+1)/int64(deployments) - n*int64(i)/int64(deployments)
}

// runAcc gathers what a run's deployments did.
type runAcc struct {
	all    *phase   // every operation, warm-ups included: answers and failures
	parts  []*phase // each deployment's measured untraced operations
	traced *phase   // measured traced operations
	status statusDelta
	setupS []float64
	// rssMB is node memory after set-up and warm-up, rssEndMB after the
	// measured loop; growthMB and loopRows sum the growth between the
	// two and the rows published in between.
	rssMB, rssEndMB []float64
	growthMB        float64
	loopRows        int
	dataSeeds       []int64
	flags           []string
	// steal is the CPU steal share of each timed window; remeasured
	// counts the windows measured again, whose operations still count
	// in dropAttempted and dropFailed.
	steal                     []float64
	remeasured                int
	dropAttempted, dropFailed int
}

// deploy sets up deployment i, warms it up, measures its share of the
// run, checks the relation's COUNT(*) and stops it.
func (a *runAcc) deploy(ctx context.Context, w *workload, cfg config, work string, i int) error {
	seed := dataSeed(cfg.seed, i)
	d, m, g, took, err := setup(ctx, w, cfg.nodeBin, setupDir(work, i), seed)
	if err != nil {
		return fmt.Errorf("set-up %d: %w", i+1, err)
	}
	defer d.stop()
	a.setupS = append(a.setupS, took.Seconds())
	a.dataSeeds = append(a.dataSeeds, seed)
	a.flags = d.flags
	e := &env{w: w, d: d, m: m, gen: g, seed: seed}
	if w.history == 0 {
		e.sv = newStaticView(m.current())
	}
	step := func(dur time.Duration, limit int, traced bool, salt int64) (*phase, error) {
		p, err := e.runPhase(ctx, dur, limit, traced, salt)
		if err != nil {
			return nil, err
		}
		if aerr := d.alive(); aerr != nil {
			return nil, aerr
		}
		a.all.merge(p)
		return p, nil
	}
	if _, err := step(opTimeout, warmupOps, false, 0); err != nil {
		return err
	}
	// Node memory is gated on this fixed amount of work: set-up plus
	// warm-up. Read after the timed loop it would grow with the number
	// of publishes the loop fits in, i.e. with publish throughput.
	rss, err := d.rssPeakMB()
	if err != nil {
		return err
	}
	rowsBefore := publishedRows(a.all, false)
	untraced := &phase{}
	a.parts = append(a.parts, untraced)
	if !cfg.trace {
		dur := time.Duration(share(int64(cfg.seconds)*int64(time.Second), i, cfg.setups))
		var best *phase
		bestSteal := 2.0
		for try := 0; try < measureTries && bestSteal > maxSteal; try++ {
			c0, err := readCPU()
			if err != nil {
				return err
			}
			p, err := step(dur, 0, false, int64(1+try))
			if err != nil {
				return err
			}
			c1, err := readCPU()
			if err != nil {
				return err
			}
			drop := p
			if st := c1.stealSince(c0); st < bestSteal {
				drop, best, bestSteal = best, p, st
			}
			if drop != nil {
				a.remeasured++
				a.dropAttempted += drop.attempted
				a.dropFailed += drop.failed
			}
		}
		untraced.merge(best)
		a.steal = append(a.steal, bestSteal)
	} else {
		// Untraced and traced slices alternate, so both see the same
		// mix of history depth and neighbour load and their throughput
		// ratio isolates the cost of tracing. Status deltas cover the
		// traced slices only.
		for j := int64(0); j < share(int64(cfg.seconds), i, cfg.setups); j++ {
			u, err := step(time.Second, 0, false, 2+2*j)
			if err != nil {
				return err
			}
			untraced.merge(u)
			before, err := takeStatus(ctx, d)
			if err != nil {
				return err
			}
			t, err := step(time.Second, 0, true, 3+2*j)
			if err != nil {
				return err
			}
			a.traced.merge(t)
			after, err := takeStatus(ctx, d)
			if err != nil {
				return err
			}
			a.status.add(before, after)
		}
	}
	// The relation's COUNT(*) after the loop: every acknowledged
	// publish, no more, no fewer.
	cl, err := dialNode(d, 0)
	if err != nil {
		return err
	}
	cerr := verifyCount(ctx, cl, m)
	cl.Close()
	if cerr != nil && !isWrong(cerr) {
		return cerr
	}
	if cerr != nil {
		a.all.wrong = append(a.all.wrong, cerr.Error())
	}
	rssEnd, err := d.rssPeakMB()
	if err != nil {
		return err
	}
	a.rssMB = append(a.rssMB, rss)
	a.rssEndMB = append(a.rssEndMB, rssEnd)
	a.growthMB += rssEnd - rss
	a.loopRows += publishedRows(a.all, false) - rowsBefore
	return nil
}

// publishedRows counts the rows of acknowledged publishes: those
// acknowledged within the measured window, or with windowOnly false all
// of them.
func publishedRows(p *phase, windowOnly bool) int {
	n := 0
	for _, s := range p.samples {
		if s.class == classPublish && (s.inWindow || !windowOnly) {
			n += s.rows
		}
	}
	return n
}

// e2eReport holds the end-to-end metrics and the per-class report lines.
type e2eReport struct {
	values map[string]float64
	lines  []string
}

// add appends a report line with its sample count.
func (r *e2eReport) add(name string, v float64, unit string, n int) {
	r.lines = append(r.lines, fmt.Sprintf("%s %.6g %s (n=%d)", name, v, unit, n))
}

// opsPerSec counts the operations completed within the measured window
// over the time they took: an operation still running at the deadline
// is not waited for, so one slow straggler cannot stretch the
// denominator.
func opsPerSec(p *phase) float64 {
	n := 0
	for _, s := range p.samples {
		if s.inWindow {
			n++
		}
	}
	return div(float64(n), p.span.Seconds())
}

// endToEndMetrics computes the contract metrics and the report lines.
// A gated figure is the median of its values on the run's deployments,
// so a burst of host noise on one deployment cannot move it; read_p50_ms
// and focus_p50_ms are the medians of the workload's read and focus
// classes, each gated on its own so a regression in one class cannot
// hide in an average. The per-class lines (median and tail with sample
// counts, bulk first batch, publish throughput) pool the deployments'
// samples.
func endToEndMetrics(w *workload, parts []*phase, setupS, rssMB []float64) *e2eReport {
	r := &e2eReport{values: map[string]float64{}}
	gate := func(name, unit string, vals []float64, n int) {
		r.values[name] = median(vals)
		r.add(name, r.values[name], unit, n)
		r.lines[len(r.lines)-1] += fmt.Sprintf(" each %.4g", vals)
	}
	p := &phase{}
	for _, q := range parts {
		p.merge(q)
	}
	gate("setup_s", "s", setupS, len(setupS))
	gate("ops_per_s", "1/s", perPart(parts, func(q *phase) (float64, bool) {
		return opsPerSec(q), q.span > 0
	}), len(p.samples))
	r.add("failed_share", div(float64(p.failed), float64(p.attempted)), "ratio", p.attempted)
	gate("node_rss_peak_mb", "MB", rssMB, nodeCount)
	for _, g := range []struct{ name, class string }{{"read_p50_ms", w.read}, {"focus_p50_ms", w.focus}} {
		gate(g.name, "ms", perPart(parts, func(q *phase) (float64, bool) {
			ms := sortedMs(classDurations(q, g.class))
			if len(ms) == 0 {
				return 0, false
			}
			return percentile(ms, 50), true
		}), len(classDurations(p, g.class)))
	}

	var first []time.Duration
	for _, s := range p.samples {
		if s.class == classBulk {
			first = append(first, s.first)
		}
	}
	for _, c := range w.classes {
		ms := sortedMs(classDurations(p, c))
		if len(ms) == 0 {
			continue
		}
		if c == classBulk {
			fb := sortedMs(first)
			r.add("bulk_first_batch_p50_ms", percentile(fb, 50), "ms", len(fb))
		}
		r.add(c+"_p50_ms", percentile(ms, 50), "ms", len(ms))
		if q, ok := tailPercentile(len(ms)); ok && q > 50 {
			r.add(fmt.Sprintf("%s_p%s_ms", c, strings.ReplaceAll(fmt.Sprint(q), ".", "")), percentile(ms, q), "ms", len(ms))
		}
		if c == classPublish {
			r.add("publish_rows_per_s", div(float64(publishedRows(p, true)), p.span.Seconds()), "rows/s", len(ms))
		}
	}
	return r
}

// perPart returns f over the parts that have something for it to
// measure.
func perPart(parts []*phase, f func(*phase) (float64, bool)) []float64 {
	var out []float64
	for _, p := range parts {
		if v, ok := f(p); ok {
			out = append(out, v)
		}
	}
	return out
}

// classDurations returns the latencies of p's operations of class.
func classDurations(p *phase, class string) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if s.class == class {
			out = append(out, s.dur)
		}
	}
	return out
}
