package bench

import (
	"bytes"
	"sync"
	"testing"

	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/device"
	"gpufpx/internal/fpx"
	"gpufpx/internal/progs"
)

// These tests are the block-parallel launch engine's correctness contract:
// running the same workload with intra-launch parallelism (-p 4) must
// produce byte-identical reports, stats and cycle counts to sequential
// execution (-p 1) under every executor, and the parallel path must
// actually engage rather than silently falling back on every launch.

// execModes enumerates the executors the engine must stay faithful under.
var execModes = []struct {
	name string
	mode device.ExecMode
}{
	{"interp", device.ExecInterp},
	{"lowered", device.ExecLowered},
	{"fused", device.ExecFused},
}

// diffParSweep sweeps ps sequentially and at -p 4 under the current
// executor and requires identical per-run results and rendered artifacts.
// It returns the block-parallel commit count the -p 4 sweep contributed.
func diffParSweep(t *testing.T, ps []progs.Program, label string) uint64 {
	t.Helper()
	seq := RunSweepOpts(ps, Options{})
	if err := seq.Err(); err != nil {
		t.Fatalf("%s: sequential sweep: %v", label, err)
	}
	before := device.ParStatsSnapshot()
	par := RunSweepOpts(ps, Options{Parallel: 4})
	after := device.ParStatsSnapshot()
	diffSweeps(t, ps, seq, par, label)
	if !bytes.Equal(renderSweep(seq), renderSweep(par)) {
		t.Errorf("%s: rendered artifacts differ between -p 1 and -p 4", label)
	}
	return after.Launches - before.Launches
}

// TestBlockParallelDifferentialSubset is the fast cross-section that runs
// in -short and under the -race CI job: every executor, sequential vs -p 4,
// byte-identical artifacts, and proof the parallel path committed launches
// instead of always falling back.
func TestBlockParallelDifferentialSubset(t *testing.T) {
	ps := detSubset()
	setWorkers(t, 4)
	for _, em := range execModes {
		setExecMode(t, em.mode)
		if commits := diffParSweep(t, ps, "par subset "+em.name); commits == 0 {
			t.Errorf("%s: -p 4 sweep committed no block-parallel launches (always fell back)", em.name)
		}
	}
}

// TestBlockParallelDifferentialFullCorpus runs the full corpus under all
// three executors. This is the acceptance gate for the engine.
func TestBlockParallelDifferentialFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-corpus block-parallel differential in -short mode")
	}
	ps := progs.All()
	for _, em := range execModes {
		setExecMode(t, em.mode)
		diffParSweep(t, ps, "par corpus "+em.name)
	}
}

// observeAnalyzerPar is observeAnalyzer with intra-launch parallelism
// enabled on the context.
func observeAnalyzerPar(p progs.Program, parallel int) analyzerObservation {
	var buf bytes.Buffer
	ctx := cuda.NewContext()
	ctx.Parallelism = parallel
	cfg := fpx.DefaultAnalyzerConfig()
	cfg.Output = &buf
	an := fpx.AttachAnalyzer(ctx, cfg)
	if err := p.Run(progs.NewRunContext(ctx, cc.Options{})); err != nil {
		return analyzerObservation{err: err}
	}
	ctx.Exit()
	return analyzerObservation{
		events: an.Events(),
		stats:  an.Stats(),
		report: buf.String(),
		cycles: ctx.Dev.Cycles,
	}
}

// TestBlockParallelAnalyzerDifferential checks the analyzer's sharded
// merge: capped event streams, uncapped aggregate stats, report text and
// cycle counts must match sequential execution exactly, per executor.
func TestBlockParallelAnalyzerDifferential(t *testing.T) {
	ps := detSubset()
	setWorkers(t, 4)
	for _, em := range execModes {
		setExecMode(t, em.mode)
		seq := observeCorpusAnalyzer(ps)
		par := make([]analyzerObservation, len(ps))
		forEach(len(ps), func(i int) { par[i] = observeAnalyzerPar(ps[i], 4) })
		diffAnalyzerObs(t, ps, seq, par, "analyzer -p 4 "+em.name)
	}
}

// TestBlockParallelSharedKernelSweep launches one cached kernel from many
// devices at once, each launch itself block-parallel — the configuration
// the -race CI job uses to prove worker shadows never race on shared
// kernel state (lowered programs, fused chains).
func TestBlockParallelSharedKernelSweep(t *testing.T) {
	def := &cc.KernelDef{
		Name:       "par_shared_kernel",
		SourceFile: "par_shared.cu",
		Params:     []cc.Param{{Name: "buf", Kind: cc.PtrF32}},
		Body: []cc.Stmt{
			cc.Let("x", cc.At("buf", cc.Gid())),
			cc.Store("buf", cc.Gid(), cc.AddE(cc.MulE(cc.V("x"), cc.V("x")), cc.F(1))),
		},
	}
	k, err := cc.CompileCached(def, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, em := range execModes {
		setExecMode(t, em.mode)

		ref := device.New(device.DefaultConfig())
		refBuf := ref.Alloc(4 * 1024)
		for iter := 0; iter < 4; iter++ {
			if _, err := ref.Launch(&device.Launch{Kernel: k, GridDim: 8, BlockDim: 32, Params: []uint32{refBuf}}); err != nil {
				t.Fatalf("%s: sequential reference: %v", em.name, err)
			}
		}

		const devices = 4
		var cycles [devices]uint64
		errs := make([]error, devices)
		var wg sync.WaitGroup
		wg.Add(devices)
		for d := 0; d < devices; d++ {
			go func(d int) {
				defer wg.Done()
				dev := device.New(device.DefaultConfig())
				buf := dev.Alloc(4 * 1024)
				for iter := 0; iter < 4; iter++ {
					if _, err := dev.Launch(&device.Launch{Kernel: k, GridDim: 8, BlockDim: 32, Params: []uint32{buf}, Parallel: 4}); err != nil {
						errs[d] = err
						return
					}
				}
				cycles[d] = dev.Cycles
			}(d)
		}
		wg.Wait()
		for d := 0; d < devices; d++ {
			if errs[d] != nil {
				t.Fatalf("%s: device %d: %v", em.name, d, errs[d])
			}
			if cycles[d] != ref.Cycles {
				t.Errorf("%s: device %d saw %d cycles at -p 4, sequential reference saw %d",
					em.name, d, cycles[d], ref.Cycles)
			}
		}
	}
}
