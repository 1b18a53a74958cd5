package main

// The corpus workload: the paper's own traffic. A closed loop of
// corpusWorkers workers runs repeated warm passes over all 151 corpus
// programs × {plain, detector, analyzer, shadow} through Session.Run with
// the fused executor and -p 1. Compilation and lowering happen only in
// set-up; HTTP, gateway and campaigns are bypassed.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"gpufpx/internal/device"
	"gpufpx/internal/progs"
	"gpufpx/pkg/gpufpx"
)

const corpusWorkers = 2

type job struct{ prog, tool string }

func corpusJobs(names []string) []job {
	var jobs []job
	for _, p := range names {
		for _, t := range toolNames {
			jobs = append(jobs, job{p, t})
		}
	}
	return jobs
}

// runOut is one run's outcome. The layer fields are filled on traced runs.
type runOut struct {
	job
	lat    time.Duration
	cycles uint64
	err    error

	start, exec, finish, encode time.Duration
	bytes                       int
	stats                       device.Stats
}

// runPass runs jobs on workers goroutines and returns the outcomes in job
// order with the pass's wall time. With a meter, each worker times the
// calibration kernel after every calibEvery jobs, and the returned wall
// time leaves the workers' mean calibration time out.
func runPass(jobs []job, workers int, mt *meter, do func(job) runOut) ([]runOut, time.Duration) {
	outs := make([]runOut, len(jobs))
	var next atomic.Int64
	var calib atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				outs[i] = do(jobs[i])
				if mt != nil && n%calibEvery == 0 {
					calib.Add(int64(mt.sample()))
				}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0) - time.Duration(calib.Load())/time.Duration(workers)
}

// facadeRun is the untraced operation: one Session.Run, checked against
// the oracle.
func facadeRun(ctx context.Context, e *env, sess map[string]*gpufpx.Session) func(job) runOut {
	return func(j job) runOut {
		t0 := time.Now()
		rep, err := sess[j.tool].Run(ctx, gpufpx.Program(j.prog))
		out := runOut{job: j, lat: time.Since(t0), err: err}
		if err == nil {
			out.cycles = rep.Cycles
			out.err = e.oracle.checkReport(j.prog, j.tool, rep)
		}
		return out
	}
}

// tracedRun is the traced operation: the same run split at the facade's
// public seams — Session.Start, the program's launches on the live
// context, Active.Finish, Report.WriteJSON — with a span around each and
// the device counters read before the device is released.
func tracedRun(e *env, sess map[string]*gpufpx.Session, defs map[string]progs.Program, pass int) func(job) runOut {
	return func(j job) runOut {
		req := fmt.Sprintf("%d/%s/%s", pass, j.prog, j.tool)
		root, endRoot := e.span("bench.run", req, 0)
		defer endRoot()
		out := runOut{job: j}
		t0 := time.Now()

		_, end := e.span("gpufpx.start", req, root)
		a := sess[j.tool].Start()
		end()
		t1 := time.Now()

		_, end = e.span("device.exec", req, root)
		err := defs[j.prog].Run(progs.NewRunContext(a.Ctx, gpufpx.CompileOptions{}))
		end()
		t2 := time.Now()

		_, end = e.span("gpufpx.finish", req, root)
		rep := a.Finish()
		end()
		t3 := time.Now()
		out.stats = a.Ctx.Dev.Stats
		a.Ctx.Dev.Release()

		_, end = e.span("report.encode", req, root)
		fp, ferr := fingerprint(rep)
		end()
		t4 := time.Now()

		out.start, out.exec, out.finish, out.encode = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
		out.bytes = len(fp)
		out.lat = t3.Sub(t0)
		out.cycles = rep.Cycles
		switch {
		case err != nil:
			out.err = fmt.Errorf("%s/%s: %w", j.prog, j.tool, err)
		case ferr != nil:
			out.err = ferr
		default:
			out.err = e.oracle.CheckRun(j.prog, j.tool, rep.Cycles, digestBytes(fp))
		}
		return out
	}
}

func runCorpus(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	m := res.metrics
	names := programNames()
	jobs := corpusJobs(names)
	sess := toolSessions()
	defs := map[string]progs.Program{}
	for _, p := range names {
		def, err := progs.ByName(p)
		if err != nil {
			return nil, err
		}
		defs[p] = def
	}

	if e.traced() {
		if err := setupLayers(ctx, names, m); err != nil {
			return nil, err
		}
	}
	var setupOuts []runOut
	cal := newMeter(corpusKernel, corpusWorkers)
	setup, err := medianSetup(cal, func() (time.Duration, error) {
		var wall time.Duration
		setupOuts, wall = runPass(jobs, corpusWorkers, cal, facadeRun(ctx, e, sess))
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup
	cycles := map[string]uint64{}
	for _, o := range setupOuts {
		res.check(o.err)
		cycles[runKey(o.prog, o.tool)] = o.cycles
	}
	if res.failed > 0 {
		return res, nil // the failures are the result; the rest needs their outputs
	}
	if err := slowdowns(cycles, names, m); err != nil {
		return nil, err
	}
	hotDone := hotTier(m)

	// Measure: shuffled warm passes until the time is up. A traced run
	// alternates untraced and traced passes, so both see the same state.
	// Untraced passes time the calibration kernel as they go and are
	// normalised by it, pass by pass.
	rng := rand.New(rand.NewPCG(e.seed, 0xc0))
	var (
		lats, passRate        []float64
		rawLats, rawRate      []float64
		untracedWall, tWall   []float64
		untracedBusy          []float64
		layer                 = map[string][]float64{}
		startUS, finUS, encUS []float64
		encBytes              []float64
		tracedRuns            int
	)
	minPasses := 1
	if e.traced() {
		minPasses = 2
	}
	deadline := time.Now().Add(e.seconds)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		order := append([]job(nil), jobs...)
		rng.Shuffle(len(order), func(i, k int) { order[i], order[k] = order[k], order[i] })
		if e.traced() && pass%2 == 1 {
			outs, wall := runPass(order, corpusWorkers, nil, tracedRun(e, sess, defs, pass))
			tWall = append(tWall, wall.Seconds())
			tracedRuns += len(outs)
			sums := map[string]float64{}
			for _, o := range outs {
				res.check(o.err)
				sums["exec."+o.tool] += ms(o.exec)
				sums["calls."+o.tool] += float64(o.stats.InjectedCalls)
				sums["packets."+o.tool] += float64(o.stats.PacketsPushed)
				sums["stall."+o.tool] += float64(o.stats.StallCycles)
				sums["instr."+o.tool] += float64(o.stats.Instructions)
				startUS = append(startUS, us(o.start))
				finUS = append(finUS, us(o.finish))
				if o.tool != "plain" {
					encUS = append(encUS, us(o.encode))
					encBytes = append(encBytes, float64(o.bytes))
				}
			}
			for k, v := range sums {
				layer[k] = append(layer[k], v)
			}
			continue
		}
		// A traced run reports no end-to-end metrics; its untraced passes
		// skip the calibration, so that they compare with the traced ones.
		var mt *meter
		scale := 1.0
		if !e.traced() {
			mt = cal
			mt.reset()
		}
		outs, wall := runPass(order, corpusWorkers, mt, facadeRun(ctx, e, sess))
		if mt != nil {
			scale = mt.take()
		}
		var busy float64
		for _, o := range outs {
			res.check(o.err)
			lats = append(lats, ms(o.lat)*scale)
			rawLats = append(rawLats, ms(o.lat))
			busy += ms(o.lat)
		}
		rate := float64(len(outs)) / wall.Seconds()
		passRate = append(passRate, rate/scale)
		rawRate = append(rawRate, rate)
		untracedWall = append(untracedWall, wall.Seconds())
		untracedBusy = append(untracedBusy, busy)
	}
	hotDone()
	// The median pass, which a short stall on a shared host moves less
	// than the mean over all passes.
	m["ops_per_s"] = median(passRate)
	m["p50_ms"] = quantile(lats, 0.50)
	m["p99_ms"] = quantile(lats, 0.99)
	m["raw.ops_per_s"] = median(rawRate)
	m["raw.p50_ms"] = quantile(rawLats, 0.50)
	m["raw.p99_ms"] = quantile(rawLats, 0.99)
	m["host.calib_ms"] = cal.medianMS()
	if !e.traced() {
		return res, nil
	}

	// Per-layer table, per pass. device.exec_ms is the plain runs' launch
	// time; a tool's overhead is its launch time minus plain's.
	per := func(k string) float64 { return median(layer[k]) }
	execMS := per("exec.plain")
	m["device.exec_ms"] = execMS
	m["device.instr"] = per("instr.plain")
	m["device.minstr_per_s"] = per("instr.plain") / execMS / 1e3
	accounted := execMS
	for _, t := range toolNames[1:] {
		ovh := per("exec."+t) - execMS
		calls := per("calls." + t)
		m["fpx.overhead_ms."+t] = ovh
		m["fpx.injected_calls."+t] = calls
		m["fpx.ns_per_call."+t] = ovh * 1e6 / max(calls, 1)
		m["device.packets."+t] = per("packets." + t)
		m["device.stall_cycles."+t] = per("stall." + t)
		accounted += per("exec." + t)
	}
	m["gpufpx.start_us"] = median(startUS)
	m["gpufpx.finish_us"] = median(finUS)
	m["report.encode_us"] = median(encUS)
	m["report.bytes"] = mean(encBytes)
	// Reconciliation: the four launches of each pair (device.exec_ms plus
	// each tool's overhead over it) should account for an untraced pass's
	// busy time; the rest is facade set-up, finish and the oracle check.
	busy := median(untracedBusy)
	m["trace.reconcile_gap"] = (busy - accounted) / busy
	m["trace.overhead"] = median(tWall)/median(untracedWall) - 1
	selfTimeMetrics(e.rec, tracedRuns, m)
	if err := campaignPhase(ctx, e, res); err != nil {
		return nil, err
	}
	return res, nil
}
