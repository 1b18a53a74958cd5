package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// lastLine decodes the result line a run prints last.
func lastLine(t *testing.T, out string) resultJSON {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestTinyRuns runs every workload briefly, untraced and traced, and
// checks the result line carries every metric of its set.
func TestTinyRuns(t *testing.T) {
	for _, w := range []string{"corpus", "serve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				if testing.Short() && trace == "1" {
					t.Skip("traced runs are slow")
				}
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run(context.Background(), []string{
					"--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", trace,
					"--tmp", dir, "--spans", filepath.Join(dir, "spans.json"),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
					if _, err := os.Stat(filepath.Join(dir, "spans.json")); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := res.Metrics[d.name]
					if !ok || got.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, got, d.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, got.Value)
					}
				}
			})
		}
	}
}

// TestTamperedOracleDetected changes one oracle entry — a run's cycles, or
// a campaign's profile digest — and expects the corpus workload, or the
// campaign rounds of a traced corpus run, to count the mismatch as a
// failure and the run to exit 1.
func TestTamperedOracleDetected(t *testing.T) {
	const seed = 5
	for _, tc := range []struct {
		name, want string
		tamper     func(*Oracle)
		run        func(context.Context, *env) (*result, error)
	}{
		{"run", "GRAMSCHM/detector: 36403 cycles, oracle says 36404", func(o *Oracle) {
			k := runKey("GRAMSCHM", "detector")
			e := o.Runs[k]
			e.Cycles++
			o.Runs[k] = e
		}, runCorpus},
		{"campaign", "interval/shadow seed 6: profile digest", func(o *Oracle) {
			o.Campaigns[campaignKey("interval", "shadow", campaignSeed(seed))] = strings.Repeat("0", 32)
		}, func(ctx context.Context, e *env) (*result, error) {
			res := newResult()
			run := campaignRun{campaignSpec{"interval", 0}, "shadow"}
			return res, campaignRounds(ctx, e, []campaignRun{run}, res)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := loadOracle()
			if err != nil {
				t.Fatal(err)
			}
			tc.tamper(o)
			e := &env{seed: seed, seconds: time.Millisecond, oracle: o, tmp: t.TempDir()}
			res, err := tc.run(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			joined := strings.Join(res.mismatches, "\n")
			if res.failed == 0 || !strings.Contains(joined, tc.want) {
				t.Fatalf("%d failures, want one mentioning %q:\n%s", res.failed, tc.want, joined)
			}
			var stdout, stderr bytes.Buffer
			if code := report(&stdout, &stderr, tc.name, false, res); code != 1 {
				t.Errorf("report exit %d, want 1", code)
			}
			if got := lastLine(t, stdout.String()); got.Correct || got.Failed != res.failed {
				t.Errorf("result %+v, want correct false and %d failed", got, res.failed)
			}
		})
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, table %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("bench.run", "a", 0)
	child := r.Begin("device.exec", "a", root)
	time.Sleep(2 * time.Millisecond)
	r.End(child)
	r.End(root)
	self := r.SelfTimes()
	if self["device"] < 2*time.Millisecond {
		t.Errorf("device self %v, want ≥ 2ms", self["device"])
	}
	if self["bench"] < 0 || self["bench"] >= self["device"] {
		t.Errorf("bench self %v against device %v", self["bench"], self["device"])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestMeterScale(t *testing.T) {
	m := newMeter(corpusKernel, 1)
	m.sample()
	m.sample()
	if f := m.take(); !(f > 0) {
		t.Errorf("scale %v, want > 0", f)
	}
	// An empty window samples before it closes.
	if f := m.take(); !(f > 0) {
		t.Errorf("scale of an empty window %v, want > 0", f)
	}
	if got := m.medianMS(); !(got > 0) {
		t.Errorf("median calibration %v ms, want > 0", got)
	}
}
