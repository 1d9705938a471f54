package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNamesMatchBenchmarkJSON pins the workload and metric names (and
// units) the program reports to the ones BENCHMARK.json declares. The
// program may run workloads BENCHMARK.json does not gate (README.md
// says which and why); every gated one must exist.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, reported []struct{ name, unit string }) {
		if len(declared) != len(reported) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(declared), len(reported))
		}
		for i, d := range declared {
			if d.Name != reported[i].name || d.Unit != reported[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestKnownDefect pins which failures the smoke test attributes to the
// program defects README.md lists: only each defect's own signature, on
// its own workload.
func TestKnownDefect(t *testing.T) {
	stale := "point k7-x@229: got {k:k7-x grp:56 v:1}, want version of epoch 229 (grp 33, v 2)"
	stall := "bulk: stream stalled awaiting credit: context deadline exceeded"
	for _, c := range []struct {
		workload string
		res      result
		known    bool
	}{
		{"publish-history", result{wrong: []string{stale}}, true},
		{"publish-history", result{wrong: []string{stale, "range [1,2]: got 0 rows, want 500"}}, false},
		{"publish-history", result{wrong: []string{stale}, Failed: 1, failures: []string{stall}}, false},
		{"publish-pinned", result{wrong: []string{stale}}, false},
		{"bulk-stream", result{Correct: true, Failed: 1, failures: []string{stall}}, true},
		{"bulk-stream", result{Correct: true, Failed: 1, failures: []string{"bulk: connection reset"}}, false},
		{"bulk-stream", result{Failed: 1, failures: []string{stall}, wrong: []string{"full scan: got 1 rows, want 2"}}, false},
		{"query-mix", result{Correct: true, Failed: 1, failures: []string{stall}}, false},
		{"bulk-stream", result{Correct: true}, false},
	} {
		if got := knownDefect(c.workload, &c.res) != ""; got != c.known {
			t.Errorf("%s %v %v: known defect %v, want %v", c.workload, c.res.wrong, c.res.failures, got, c.known)
		}
	}
}

// knownDefect returns the program defect, listed in README.md under
// "Gated workloads and known defects", that explains every wrong answer
// and failure of a run of workload, or "" when something else went
// wrong (or nothing did).
func knownDefect(workload string, res *result) string {
	if len(res.wrong) == 0 && res.Failed == 0 {
		return ""
	}
	switch workload {
	case "publish-history":
		// Current-epoch point reads answered with the previous version
		// labelled with the new epoch; no transport failures.
		if res.Failed != 0 {
			return ""
		}
		for _, w := range res.wrong {
			if !strings.HasPrefix(w, classPoint+" ") || !strings.Contains(w, "want version of epoch") {
				return ""
			}
		}
		return "stale reads under a new epoch: " + res.wrong[0]
	case "bulk-stream":
		// Full streams stalled for want of credit; every answer right.
		if len(res.wrong) != 0 || len(res.failures) == 0 {
			return ""
		}
		for _, f := range res.failures {
			if !strings.HasPrefix(f, classBulk+": ") || !strings.Contains(f, "stalled awaiting credit") {
				return ""
			}
		}
		return "a stream loses its credits: " + res.failures[0]
	}
	return ""
}

// TestSmoke runs every workload briefly against a real deployment: one
// set-up, one measured second. Every workload runs untraced, and
// query-mix and publish-pinned traced as well. bulk-stream and
// publish-history can fail at this commit through the program defects
// README.md lists; a failure that matches its workload's defect skips
// the subtest and names the defect, and any other failure fails it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches node processes")
	}
	gated := map[string]bool{}
	for _, w := range readBenchmarkJSON(t).Workloads {
		gated[w.Name] = true
	}
	bin := filepath.Join(t.TempDir(), "orchestra-node")
	build := exec.Command("go", "build", "-o", bin, "orchestra/cmd/orchestra-node")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build orchestra-node: %v\n%s", err, out)
	}
	for _, c := range []struct {
		workload string
		trace    bool
	}{
		{"query-mix", false},
		{"query-mix", true},
		{"bulk-stream", false},
		{"publish-history", false},
		{"publish-pinned", false},
		{"publish-pinned", true},
	} {
		name := c.workload
		if c.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{workload: c.workload, seed: 1, seconds: 1, trace: c.trace, setups: 1, nodeBin: bin, work: t.TempDir()}
			res, err := run(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := knownDefect(c.workload, res); d != "" {
				t.Skipf("known program defect (README.md): %s", d)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, attempted %d, failed %d: %v %v", res.Correct, res.Attempted, res.Failed, res.wrong, res.failures)
			}
			want := endToEnd
			if c.trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("metric %s missing", m.name)
				}
			}
			if !c.trace {
				// A one-second run of an ungated workload may miss a
				// class; a gated workload must produce every metric.
				if gated[c.workload] {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
				return
			}
			fsyncs := res.Metrics["wal.fsyncs_per_publish"].Value
			if durable := w.durable; durable != (fsyncs > 0) {
				t.Errorf("wal.fsyncs_per_publish = %v on a durable=%v deployment", fsyncs, durable)
			}
			if c.workload == "query-mix" && res.Metrics["engine.pagecache_hit_ratio"].Value < 0.5 {
				t.Errorf("query-mix page cache hit ratio %v, want high", res.Metrics["engine.pagecache_hit_ratio"].Value)
			}
		})
	}
}
