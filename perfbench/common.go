package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gpufpx/internal/cc"
	"gpufpx/internal/device"
	"gpufpx/internal/sass"
	"gpufpx/pkg/gpufpx"
)

// toolNames are the tools every (program, tool) oracle entry covers; plain
// is the slowdown baseline.
var toolNames = []string{"plain", "detector", "analyzer", "shadow"}

// setupRepeats is how many cold set-ups a run makes; setup_s is their
// median.
const setupRepeats = 3

func mustTool(name string) gpufpx.Tool {
	t, err := gpufpx.ParseTool(name)
	if err != nil {
		panic(err)
	}
	return t
}

// programNames lists the 151-program paper corpus in registration order.
func programNames() []string {
	infos := gpufpx.Programs()
	out := make([]string, len(infos))
	for i, p := range infos {
		out[i] = p.Name
	}
	return out
}

// toolSessions builds one session per tool with the default (fused)
// executor and -p 1.
func toolSessions() map[string]*gpufpx.Session {
	out := map[string]*gpufpx.Session{}
	for _, t := range toolNames {
		out[t] = gpufpx.New(gpufpx.WithTool(mustTool(t)))
	}
	return out
}

// medianSetup runs fn setupRepeats times after dropping the shared compile
// cache, so each is a cold set-up, and returns the median normalised time in
// seconds. fn returns its own time, calibration samples left out; the
// samples it takes scale that time.
func medianSetup(mt *meter, fn func() (time.Duration, error)) (float64, error) {
	var times []float64
	for range setupRepeats {
		cc.ResetCache()
		mt.reset()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds()*mt.take())
	}
	return median(times), nil
}

// slowdowns sets slowdown.<tool>: the geometric mean over programs of the
// tool's simulated cycles over plain's.
func slowdowns(cycles map[string]uint64, progs []string, m map[string]float64) error {
	for _, tool := range toolNames[1:] {
		var ratios []float64
		for _, p := range progs {
			base, okB := cycles[runKey(p, "plain")]
			c, okT := cycles[runKey(p, tool)]
			if !okB || !okT || base == 0 {
				return fmt.Errorf("slowdown.%s: no cycles for %s", tool, p)
			}
			ratios = append(ratios, float64(c)/float64(base))
		}
		m["slowdown."+tool] = geomean(ratios)
	}
	return nil
}

// setupLayers makes one extra cold set-up of progs under plain, single
// threaded, with a timing wrapper around device.Prelower installed as the
// compile hook, and reports the set-up layer metrics: compile-cache misses,
// lowering time, lowered instructions, fused chain ops, and compile time
// estimated as the cold pass minus a warm pass minus lowering.
func setupLayers(ctx context.Context, progs []string, m map[string]float64) error {
	var prelower atomic.Int64
	cc.OnCompile(func(k *sass.Kernel) {
		t0 := time.Now()
		device.Prelower(k)
		prelower.Add(int64(time.Since(t0)))
	})
	defer cc.OnCompile(device.Prelower)
	plain := gpufpx.New(gpufpx.WithTool(gpufpx.Plain()))
	pass := func() (time.Duration, error) {
		t0 := time.Now()
		for _, p := range progs {
			if _, err := plain.Run(ctx, gpufpx.Program(p)); err != nil {
				return 0, fmt.Errorf("%s/plain: %w", p, err)
			}
		}
		return time.Since(t0), nil
	}
	cc.ResetCache()
	before := gpufpx.Stats()
	cold, err := pass()
	if err != nil {
		return err
	}
	after := gpufpx.Stats()
	warm, err := pass()
	if err != nil {
		return err
	}
	pre := time.Duration(prelower.Load())
	m["cc.misses"] = float64(after.CompileCacheMisses - before.CompileCacheMisses)
	m["device.prelower_ms"] = ms(pre)
	m["cc.compile_ms"] = max(ms(cold-warm-pre), 0)
	m["device.lowered_instrs"] = float64(after.LoweredInstrs - before.LoweredInstrs)
	m["device.fused_chain_ops"] = float64(after.FusedChainOps - before.FusedChainOps)
	return nil
}

// hotTier snapshots the hot-tier counters; the returned func sets
// device.hot_hits and device.hot_recompiles to the change since.
func hotTier(m map[string]float64) func() {
	before := gpufpx.Stats()
	return func() {
		after := gpufpx.Stats()
		m["device.hot_hits"] = float64(after.HotHits - before.HotHits)
		m["device.hot_recompiles"] = float64(after.HotRecompiles - before.HotRecompiles)
	}
}
