package main

// The campaign layer: Session.Profile with campaignWorkers workers and a
// fresh checkpoint directory, over the short single-launch programs
// GRAMSCHM, interval and diff-squares with all their sites and the long
// multi-launch myocyte with a capped site count, each under the detector
// and the shadow sanitizer. Fault hooks veto the fused tier and
// block-parallel execution, so this is thousands of short re-executions on
// the hooked lowered path plus checkpoint I/O. Traced corpus runs measure
// it (campaignPhase); it is not a workload of its own, because its
// throughput drifted by up to 2× between runs of identical code on a
// shared host (see README.md).

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"gpufpx/pkg/gpufpx"
)

type campaignSpec struct {
	prog     string
	maxSites int // 0 profiles every site
}

var campaignSpecs = []campaignSpec{
	{"GRAMSCHM", 0},
	{"interval", 0},
	{"diff-squares", 0},
	{"myocyte", 4},
}

var campaignTools = []string{"detector", "shadow"}

const (
	campaignWorkers = 2
	// campaignSeeds is the number of campaign plans: a run profiles with
	// campaign seed 1 + seed%campaignSeeds, and the oracle holds a digest
	// for every plan.
	campaignSeeds = 8
	// campaignProbes is how many one-trial timing probes a traced run makes
	// per campaign.
	campaignProbes = 5
)

func campaignSeed(seed uint64) uint64 { return 1 + seed%campaignSeeds }

// campaignSession builds the session that profiles spec under tool.
func campaignSession(tool string, spec campaignSpec, seed uint64, dir string, opts ...gpufpx.Option) *gpufpx.Session {
	cfg := gpufpx.CampaignConfig{Seed: seed, Workers: campaignWorkers, MaxSites: spec.maxSites, Dir: dir}
	return gpufpx.New(append([]gpufpx.Option{gpufpx.WithTool(mustTool(tool)), gpufpx.WithCampaign(cfg)}, opts...)...)
}

type campaignRun struct {
	spec campaignSpec
	tool string
}

// campaignPhase measures the campaign layer at the end of a traced corpus
// run: campaignLayers splits each program's campaign time into golden run
// and per-trial cost, then campaignRounds runs every campaign with
// campaignWorkers workers. Every profile is checked against the oracle.
func campaignPhase(ctx context.Context, e *env, res *result) error {
	var runs []campaignRun
	for _, c := range campaignSpecs {
		for _, t := range campaignTools {
			runs = append(runs, campaignRun{c, t})
		}
	}
	if err := campaignLayers(ctx, e, runs, res); err != nil {
		return err
	}
	return campaignRounds(ctx, e, runs, res)
}

// campaignRounds profiles runs twice in seeded order, with a fresh
// checkpoint directory and without, and reports the campaign layer's
// throughput, checkpoint cost and crash share.
func campaignRounds(ctx context.Context, e *env, runs []campaignRun, res *result) error {
	m := res.metrics
	cseed := campaignSeed(e.seed)
	rng := rand.New(rand.NewPCG(e.seed, 0xca))
	wall := map[bool]map[campaignRun]float64{true: {}, false: {}}
	var (
		trials, crash, profiles int
		dirTrials               int
		dirTime, profileTime    time.Duration
	)
	for round, useDir := range []bool{true, false} {
		order := append([]campaignRun(nil), runs...)
		rng.Shuffle(len(order), func(i, k int) { order[i], order[k] = order[k], order[i] })
		for _, c := range order {
			var dir string
			if useDir {
				var err error
				if dir, err = os.MkdirTemp(e.tmp, "campaign-*"); err != nil {
					return err
				}
			}
			_, end := e.span("campaign.profile", fmt.Sprintf("%d/%s/%s", round, c.spec.prog, c.tool), 0)
			t0 := time.Now()
			rep, err := campaignSession(c.tool, c.spec, cseed, dir).Profile(ctx, gpufpx.Program(c.spec.prog))
			d := time.Since(t0)
			end()
			if dir != "" {
				if rmErr := os.RemoveAll(dir); rmErr != nil {
					return rmErr
				}
			}
			if err == nil {
				err = e.oracle.CheckCampaign(c.spec.prog, c.tool, cseed, rep)
			}
			res.check(err)
			if err != nil {
				continue
			}
			profiles++
			profileTime += d
			trials += rep.Totals.Trials
			crash += rep.Totals.Crash
			wall[useDir][c] = ms(d)
			if useDir {
				dirTrials += rep.Totals.Trials
				dirTime += d
			}
		}
	}
	if dirTime > 0 {
		m["campaign.trials_per_s"] = float64(dirTrials) / dirTime.Seconds()
	}
	// Checkpoint cost: per campaign, the wall time with a checkpoint
	// directory minus without; the median over campaigns keeps the long
	// myocyte campaigns' spread out of it.
	var ckpt []float64
	for _, c := range runs {
		with, okW := wall[true][c]
		without, okO := wall[false][c]
		if okW && okO {
			ckpt = append(ckpt, with-without)
		}
	}
	m["campaign.checkpoint_ms"] = median(ckpt)
	m["campaign.crash_share"] = float64(crash) / float64(max(trials, 1))
	if profiles > 0 {
		// Profile spans have no children: the layer's self time per
		// profile is their mean duration.
		m["self_ms.campaign"] = ms(profileTime) / float64(profiles)
	}
	return nil
}

// campaignLayers splits each program's campaign time into the golden run
// and the per-trial cost with one worker and no checkpoint: a full plan of
// T trials takes golden + T·trial, a one-trial plan golden + trial. The
// full plan's profile is checked against the oracle; the one-trial plan is
// only a timing probe.
func campaignLayers(ctx context.Context, e *env, runs []campaignRun, res *result) error {
	cseed := campaignSeed(e.seed)
	golden := map[string][]float64{}
	trial := map[string][]float64{}
	for _, c := range runs {
		one := gpufpx.WithCampaign(gpufpx.CampaignConfig{Seed: cseed, Workers: 1, MaxSites: c.spec.maxSites})
		t0 := time.Now()
		full, err := campaignSession(c.tool, c.spec, cseed, "", one).Profile(ctx, gpufpx.Program(c.spec.prog))
		fullMS := ms(time.Since(t0))
		if err == nil {
			err = e.oracle.CheckCampaign(c.spec.prog, c.tool, cseed, full)
		}
		res.check(err)
		if err != nil {
			continue
		}
		// The one-trial probe is cheap: take the median of a few.
		probe := campaignSession(c.tool, c.spec, cseed, "",
			gpufpx.WithCampaign(gpufpx.CampaignConfig{Seed: cseed, Workers: 1, MaxSites: 1, TrialsPerSite: 1}))
		var probes []float64
		for range campaignProbes {
			t0 = time.Now()
			small, err := probe.Profile(ctx, gpufpx.Program(c.spec.prog))
			probes = append(probes, ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("campaign probe %s/%s: %w", c.spec.prog, c.tool, err)
			}
			if small.Totals.Trials != 1 || full.Totals.Trials < 2 {
				return fmt.Errorf("campaign probe %s/%s: %d and %d trials", c.spec.prog, c.tool, small.Totals.Trials, full.Totals.Trials)
			}
		}
		smallMS := median(probes)
		per := (fullMS - smallMS) / float64(full.Totals.Trials-1)
		trial[c.spec.prog] = append(trial[c.spec.prog], per)
		golden[c.spec.prog] = append(golden[c.spec.prog], smallMS-per)
	}
	for _, c := range campaignSpecs {
		g, t := mean(golden[c.prog]), mean(trial[c.prog])
		res.metrics["campaign.golden_ms."+c.prog] = g
		res.metrics["campaign.trial_ms."+c.prog] = t
		if g > 0 {
			res.metrics["campaign.trial_to_golden."+c.prog] = t / g
		}
	}
	return nil
}
