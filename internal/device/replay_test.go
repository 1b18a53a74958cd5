package device

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"gpufpx/internal/sass"
)

// The instrumented fused path runs a chain's micro-ops between its call
// sites and settles statistics in bulk per call-free PC run. These tests
// hold it to per-instruction stepping: every injected call, in every
// executor, must observe the same w.pc, cycles, Stats, registers and
// predicates, and an aborting call or an exhausted budget must leave the
// same device state behind.

// replayMix is a loop whose body mixes integer and FP chain ops, a
// constant-bank operand, an elided RZ-destination FADD and an elided
// PT-only ISETP inside one chain, then a global load (a thunk segment).
var replayMix = sass.MustParse("replay_mix", `
S2R R0, SR_TID.X ;
MOV R1, c[0x0][0x160] ;
SHL R2, R0, 0x2 ;
IADD R1, R1, R2 ;
MOV R10, RZ ;
L_top:
I2F R5, R0 ;
FFMA R6, R3, R5, c[0x0][0x164] ;
FMUL R7, R6, R6 ;
IADD R10, R10, 0x1 ;
FADD RZ, R6, R7 ;
FADD R8, R7, -R3 ;
ISETP.GE.AND PT, PT, R0, 0x10, PT ;
ISETP.GE.AND P1, PT, R0, 0x10, PT ;
FSEL R9, R8, R6, P1 ;
IMAD R11, R10, R0, R2 ;
FMUL32I R3, R9, 0x3f000000 ;
LDG.E R12, [R1] ;
FADD R3, R3, R12 ;
MOV R13, R3 ;
ISETP.LT.AND P0, PT, R10, 0x3, PT ;
@P0 BRA L_top ;
STG.E [R1], R3 ;
EXIT ;
`)

// replaySites are the instrumented PCs: Before and After calls on single
// chain PCs, both on one, calls on the elided FADD RZ and the LDG thunk,
// and none on the rest of the chain.
var replaySites = []struct {
	pc   int
	when When
}{
	{0, After},   // S2R, head of the prologue chain
	{6, Before},  // FFMA
	{7, After},   // FMUL
	{9, After},   // FADD RZ (elided)
	{10, Before}, // FADD
	{10, After},
	{13, Before}, // FSEL
	{15, After},  // FMUL32I
	{16, After},  // LDG (thunk segment)
	{18, Before}, // MOV
}

// replayObs is everything a call can see, rendered for comparison.
func replayObs(ctx *InjCtx, when When, pc int) string {
	w := ctx.Warp
	h := fnv.New64a()
	for l := 0; l < WarpSize; l++ {
		if ctx.LaneActive(l) {
			for _, r := range w.regs[l] {
				fmt.Fprintf(h, "%x,", r)
			}
			fmt.Fprintf(h, "p%x;", w.preds[l])
		}
	}
	return fmt.Sprintf("site %d/%d warp %d pc %d exec %#x cycles %d stats %+v regs %x",
		pc, when, w.ID, w.PC(), ctx.ExecMask, ctx.Dev.Cycles, ctx.Dev.Stats, h.Sum64())
}

type replayRun struct {
	obs    []string
	err    error
	cycles uint64
	stats  Stats
	out    []uint32
}

// runReplay launches replayMix with the call set; abortAt > 0 makes the
// abortAt-th call of site abortSite return an error.
func runReplay(t *testing.T, mode ExecMode, budget uint64, abortSite, abortAt int) replayRun {
	t.Helper()
	const threads = 48 // one full warp, one half-populated warp
	d := New(DefaultConfig())
	buf := d.Alloc(4 * threads)
	for i := 0; i < threads; i++ {
		d.Store32(buf+uint32(4*i), 0x3f800000+uint32(i)<<16)
	}
	var run replayRun
	tab := NewInjectTable(len(replayMix.Instrs))
	for si, s := range replaySites {
		si, s := si, s
		n := 0
		tab.Add(s.pc, InjectedCall{When: s.when, Cost: uint64(3 + si), Fn: func(ctx *InjCtx) error {
			run.obs = append(run.obs, replayObs(ctx, s.when, s.pc))
			if n++; si == abortSite && n == abortAt {
				return errors.New("abort")
			}
			return nil
		}})
	}
	_, run.err = d.Launch(&Launch{Kernel: replayMix, GridDim: 2, BlockDim: threads, Exec: mode,
		Params: []uint32{buf, 0x3e800000}, InjectTab: tab, MaxDynInstr: budget})
	run.cycles, run.stats = d.Cycles, d.Stats
	for i := 0; i < threads; i++ {
		run.out = append(run.out, d.Load32(buf+uint32(4*i)))
	}
	return run
}

func compareReplay(t *testing.T, name string, got, ref replayRun) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
		t.Fatalf("%s: error %v, interp %v", name, got.err, ref.err)
	}
	if got.cycles != ref.cycles || got.stats != ref.stats {
		t.Fatalf("%s: %d cycles %+v, interp %d cycles %+v", name, got.cycles, got.stats, ref.cycles, ref.stats)
	}
	if len(got.obs) != len(ref.obs) {
		t.Fatalf("%s: %d call observations, interp %d", name, len(got.obs), len(ref.obs))
	}
	for i := range ref.obs {
		if got.obs[i] != ref.obs[i] {
			t.Fatalf("%s: call %d saw\n  %s\ninterp saw\n  %s", name, i, got.obs[i], ref.obs[i])
		}
	}
	for i := range ref.out {
		if got.out[i] != ref.out[i] {
			t.Fatalf("%s: thread %d stored %#08x, interp %#08x", name, i, got.out[i], ref.out[i])
		}
	}
}

// TestFusedReplayMatchesStepping checks that the fused program really runs
// calls inside a chain, then compares every call observation across the
// three executors: a clean run, an abort from a Before and from an After
// call in mid-chain, and every budget that lands inside the launch.
func TestFusedReplayMatchesStepping(t *testing.T) {
	fk := fuseFor(replayMix)
	inner := false
	for _, r := range fk.regions {
		for _, s := range r.segs {
			if s.ch != nil && s.start < 10 && 10 < s.end-1 {
				inner = true
			}
		}
	}
	if !inner {
		t.Fatal("replay_mix has no chain segment with call sites strictly inside it")
	}

	cases := []struct {
		name               string
		budget             uint64
		abortSite, abortAt int
	}{
		{"clean", 0, -1, 0},
		{"abort-before", 0, 4, 3},
		{"abort-after", 0, 2, 5},
		{"abort-elided", 0, 3, 2},
	}
	ref := runReplay(t, ExecInterp, 0, -1, 0)
	for b := uint64(1); b < ref.stats.Instructions; b += 7 {
		cases = append(cases, struct {
			name               string
			budget             uint64
			abortSite, abortAt int
		}{fmt.Sprintf("budget-%d", b), b, -1, 0})
	}
	for _, c := range cases {
		ref := runReplay(t, ExecInterp, c.budget, c.abortSite, c.abortAt)
		if c.abortSite >= 0 && ref.err == nil {
			t.Fatalf("%s: the abort never fired", c.name)
		}
		if c.budget > 0 && !errors.Is(ref.err, ErrBudget) {
			t.Fatalf("%s: want a budget abort, got %v", c.name, ref.err)
		}
		for _, mode := range []ExecMode{ExecLowered, ExecFused} {
			compareReplay(t, fmt.Sprintf("%s %v", c.name, mode), runReplay(t, mode, c.budget, c.abortSite, c.abortAt), ref)
		}
	}
}

// TestFusedCallsCache pins the lifetime of the fused call marks cached on
// an InjectTable: one computation serves every launch of the table, copies
// start from it, SwapFn keeps it, and anything that adds calls drops it —
// so no launch ever dispatches on marks of a different call set. The
// concurrent launches at the end share one table under -race.
func TestFusedCallsCache(t *testing.T) {
	fk := fuseFor(replayMix)
	fn := func(*InjCtx) error { return nil }
	tab := NewInjectTable(len(replayMix.Instrs))
	tab.Add(7, InjectedCall{When: After, Cost: 1, Fn: fn})
	marks := func(tab *InjectTable) *fusedCalls {
		before, after := tab.split(len(replayMix.Instrs))
		return tab.fusedCallsFor(fk, before, after)
	}
	fc := marks(tab)
	if !fc.hasCall[7] || fc.hasCall[10] {
		t.Fatal("marks do not match the table's calls")
	}
	if marks(tab) != fc {
		t.Fatal("a second launch recomputed the marks")
	}

	clone, pooled := tab.Clone(), tab.ClonePooled()
	if clone.fused.Load() != fc || pooled.fused.Load() != fc {
		t.Fatal("copies of the table do not share its marks")
	}
	if !clone.SwapFn(After, 7, fn) || clone.fused.Load() != fc {
		t.Fatal("SwapFn dropped the marks")
	}
	clone.Add(10, InjectedCall{When: Before, Cost: 1, Fn: fn})
	if clone.fused.Load() != nil {
		t.Fatal("Add kept stale marks")
	}
	if got := marks(clone); !got.hasCall[10] || got == fc {
		t.Fatal("marks after Add miss the new call")
	}
	if tab.fused.Load() != fc {
		t.Fatal("mutating a copy reached the source table's marks")
	}
	pooled.Merge(clone)
	if pooled.fused.Load() != nil {
		t.Fatal("Merge kept stale marks")
	}
	pooled.Release()
	if again := tab.ClonePooled(); again.fused.Load() != fc {
		t.Fatal("a recycled pooled table carries marks of its previous contents")
	} else {
		again.Release()
	}

	// Concurrent launches share the table and race on publishing its
	// marks; each must still match sequential stepping.
	shared := NewInjectTable(len(replayMix.Instrs))
	for _, s := range replaySites {
		shared.Add(s.pc, InjectedCall{When: s.when, Cost: 2, Fn: fn})
	}
	launch := func(mode ExecMode) (uint64, Stats) {
		d := New(DefaultConfig())
		buf := d.Alloc(4 * 64)
		if _, err := d.Launch(&Launch{Kernel: replayMix, GridDim: 2, BlockDim: 64, Exec: mode,
			Params: []uint32{buf, 0x3e800000}, InjectTab: shared}); err != nil {
			t.Error(err)
		}
		return d.Cycles, d.Stats
	}
	wantCycles, wantStats := launch(ExecInterp)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			if c, s := launch(ExecFused); c != wantCycles || s != wantStats {
				t.Errorf("concurrent fused launch: %d cycles %+v, interp %d %+v", c, s, wantCycles, wantStats)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}
