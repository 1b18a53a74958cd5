// Command perfbench is the repository benchmark: an outside-in harness that
// times the public entry points of each layer (compile cache, device,
// instrumentation tools, the gpufpx facade, report encoding, serve,
// gateway and campaigns) on one named workload, checks every output against
// a checked-in oracle, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, measured untraced; with --trace 1 they are the
// per-layer set, measured by a separate traced run whose spans are written
// to --spans when the run ends. Any oracle mismatch or failed operation
// makes the run exit 1.
//
// --regen-oracle rebuilds oracle.json with the interp executor; it is the
// only way the oracle changes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gpufpx/pkg/gpufpx"
)

// env is what a workload receives: its generated-input seed, its measuring
// time and, on traced runs, the span recorder.
type env struct {
	seed    uint64
	seconds time.Duration
	rec     *Recorder // nil on untraced runs
	oracle  *Oracle
	tmp     string // scratch directory for campaign checkpoints
}

func (e *env) traced() bool { return e.rec != nil }

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	// mismatches lists the first oracle mismatches and failures, for the
	// human-readable report.
	mismatches []string
	metrics    map[string]float64
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records one failed or oracle-mismatched operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 10 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and records err, if any, as a failure.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

var workloads = map[string]func(context.Context, *env) (*result, error){
	"corpus": runCorpus,
	"serve":  runServe,
}

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: corpus or serve")
		seed     = fs.Uint64("seed", 1, "seed for the generated inputs")
		seconds  = fs.Float64("seconds", 10, "measuring time in seconds")
		trace    = fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics; 0 prints the end-to-end metrics")
		spans    = fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.json)")
		tmp      = fs.String("tmp", ".bench_build/tmp", "scratch directory for campaign checkpoints")
		regen    = fs.String("regen-oracle", "", "regenerate the oracle with the interp executor into this file, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	gpufpx.SetDefaultExecMode(gpufpx.ExecFused)
	if *regen != "" {
		if err := regenOracle(ctx, *regen, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want corpus or serve)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	oracle, err := loadOracle()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		oracle:  oracle,
		tmp:     *tmp,
	}
	if *trace == 1 {
		e.rec = NewRecorder()
	}
	res, err := fn(ctx, e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	if e.traced() {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		}
		if err := e.rec.WriteFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return report(stdout, stderr, *workload, e.traced(), res)
}

// metricDef names one reported metric and its unit. The two tables mirror
// BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"slowdown.detector", "x"},
	{"slowdown.analyzer", "x"},
	{"slowdown.shadow", "x"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"error_rate", "1"},
		{"cc.misses", "count"},
		{"cc.compile_ms", "ms"},
		{"device.prelower_ms", "ms"},
		{"device.lowered_instrs", "count"},
		{"device.fused_chain_ops", "count"},
		{"device.exec_ms", "ms"},
		{"device.instr", "count"},
		{"device.minstr_per_s", "Minstr/s"},
		{"device.hot_hits", "count"},
		{"device.hot_recompiles", "count"},
	}
	for _, t := range []string{"detector", "analyzer", "shadow"} {
		defs = append(defs,
			metricDef{"fpx.overhead_ms." + t, "ms"},
			metricDef{"fpx.injected_calls." + t, "count"},
			metricDef{"fpx.ns_per_call." + t, "ns"},
			metricDef{"device.packets." + t, "count"},
			metricDef{"device.stall_cycles." + t, "cycles"},
		)
	}
	defs = append(defs,
		metricDef{"gpufpx.start_us", "us"},
		metricDef{"gpufpx.finish_us", "us"},
		metricDef{"report.encode_us", "us"},
		metricDef{"report.bytes", "bytes"},
		metricDef{"serve.handler_ms.p50", "ms"},
		metricDef{"serve.handler_ms.p99", "ms"},
		metricDef{"serve.self_ms.p50", "ms"},
		metricDef{"gateway.self_ms.p50", "ms"},
		metricDef{"gateway.node_skew", "x"},
		metricDef{"client.wait_ms.p99", "ms"},
		metricDef{"serve.p50_ms.mid", "ms"},
		metricDef{"serve.p99_ms.low", "ms"},
		metricDef{"serve.p99_ms.mid", "ms"},
		metricDef{"serve.p99_ms.high", "ms"},
		metricDef{"serve.max_rps", "1/s"},
		metricDef{"serve.capacity_rps", "1/s"},
	)
	for _, c := range campaignSpecs {
		defs = append(defs,
			metricDef{"campaign.golden_ms." + c.prog, "ms"},
			metricDef{"campaign.trial_ms." + c.prog, "ms"},
			metricDef{"campaign.trial_to_golden." + c.prog, "x"},
		)
	}
	defs = append(defs,
		metricDef{"campaign.trials_per_s", "1/s"},
		metricDef{"campaign.checkpoint_ms", "ms"},
		metricDef{"campaign.crash_share", "1"},
		metricDef{"trace.overhead", "1"},
		metricDef{"trace.reconcile_gap", "1"},
	)
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	return defs
}()

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the human-readable table of every metric the run measured
// — the selected set, then the rest as informational rows — then the result
// line, and returns the exit code. Per-layer metrics a workload does not
// exercise read 0.
func report(stdout, stderr io.Writer, workload string, traced bool, res *result) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultJSON{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricJSON{},
	}
	if traced {
		res.metrics["error_rate"] = float64(res.failed) / float64(max(res.attempted, 1))
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", workload, d.name)
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range res.metrics {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	fmt.Fprintf(stdout, "# perfbench workload=%s traced=%v attempted=%d failed=%d\n", workload, traced, res.attempted, res.failed)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", d.name, out.Metrics[d.name].Value, d.unit)
	}
	for _, name := range extra {
		fmt.Fprintf(stdout, "%-34s %16.6g (info)\n", name, res.metrics[name])
	}
	for _, m := range res.mismatches {
		fmt.Fprintln(stdout, "# FAIL", strings.ReplaceAll(m, "\n", " "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
