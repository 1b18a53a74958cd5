package fpx

import (
	"math"
	"math/bits"
	"sync"

	"gpufpx/internal/device"
	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file lowers the shadow sanitizer the way analyzer_lower.go lowers the
// analyzer: every shadowed instruction is compiled once, at Instrument time,
// into a shadowSite whose operand readers, FP64 evaluator, cancellation
// shape and report strings are pre-resolved. The per-dynamic-instruction
// path then runs with zero heap allocation when nothing drifts.
//
// The shadow register file itself is a pooled slab structure (the PR 6-8
// recipe): one warpShadow per warp-in-block, 32 lanes of per-register cells,
// never cleared — a cell is live only when its generation tag matches the
// current ⟨launch epoch, block⟩ and its recorded bit pattern still matches
// the register, so reuse across blocks, launches and pool round-trips is
// free. FTZ source flushing is deliberately not mirrored: the shadow keeps
// the subnormal value the flush would discard, which is exactly the
// information loss the sanitizer exists to expose.

// sigThreshold converts "more than sigBits significand bits are noise" into
// a relative-error threshold for a format with mant significand bits.
func sigThreshold(sigBits, mant int) float64 {
	return math.Ldexp(1, sigBits-mant)
}

// shadowCell is one register's shadow backing for one lane: the FP64 value,
// the real register bits it mirrors, the format that wrote it and the
// ⟨epoch, block⟩ generation it is live under.
type shadowCell struct {
	gen  uint64
	val  float64
	bits uint32
	fmt  fpval.Format
}

// warpShadow is one warp's shadow register file.
type warpShadow struct {
	lanes [device.WarpSize][]shadowCell
}

// cell returns the lane's cell for a register, growing the lane's file on
// first contact with a higher register number.
func (ws *warpShadow) cell(lane, reg int) *shadowCell {
	cells := ws.lanes[lane]
	if reg >= len(cells) {
		grown := make([]shadowCell, reg+8)
		copy(grown, cells)
		ws.lanes[lane] = grown
		cells = grown
	}
	return &cells[reg]
}

// warpShadowPool recycles warp shadow files across launches and block
// ranges; stale generation tags make clearing unnecessary.
var warpShadowPool = sync.Pool{New: func() any { return new(warpShadow) }}

// shadowSlabs is a growable set of pooled warp shadow files, indexed by warp
// in block.
type shadowSlabs struct {
	warps []*warpShadow
}

// warp returns (allocating from the pool on first use) the file for one warp
// in block.
func (s *shadowSlabs) warp(i int) *warpShadow {
	if i >= len(s.warps) {
		grown := make([]*warpShadow, i+1)
		copy(grown, s.warps)
		s.warps = grown
	}
	if s.warps[i] == nil {
		s.warps[i] = warpShadowPool.Get().(*warpShadow)
	}
	return s.warps[i]
}

// release returns every file to the pool.
func (s *shadowSlabs) release() {
	for i, ws := range s.warps {
		if ws != nil {
			warpShadowPool.Put(ws)
			s.warps[i] = nil
		}
	}
	s.warps = nil
}

// shadowLaneOps is one lane's captured operand shadow values.
type shadowLaneOps struct {
	v [3]float64
}

// shadowScratch is one warp's operand capture buffer.
type shadowScratch [device.WarpSize]shadowLaneOps

// shadowCounts aggregates one instruction location: per-kind finding
// counters and the emitted count the MaxFindingsPerSite cap applies to.
type shadowCounts struct {
	kinds   [3]uint64 // indexed by ShadowKind
	emitted int
}

// Paired-execution shapes judge evaluates inline (shadowSite.op).
const (
	shadowEval uint8 = iota // MUFU: through shadowSite.eval
	shadowAdd
	shadowMul
	shadowFMA
)

// shadowCand is one warp execution's worst-lane finding candidate — the pure
// triage output shared by the live after call and the block-range shard.
type shadowCand struct {
	kind         ShadowKind
	lane         int
	real, shadow float64
	relErr       float64
	lost         int
}

// shadowSite is one sanitizer site compiled at Instrument time.
type shadowSite struct {
	sh *Shadow

	srcs    [3]device.ValSrc
	nsrc    int
	dstReg  int
	fmt     fpval.Format
	addLike bool
	// op selects the FP64 paired execution judge runs inline; eval is the
	// paired execution of the remaining (MUFU) sites, unused operand slots
	// zero.
	op   uint8
	eval func(a, b, c float64) float64
	// sigThresh is the format's relative-error threshold, resolved once.
	sigThresh float64

	kernel string
	pc     int
	sass   string
	loc    sass.SourceLoc

	counts *shadowCounts
}

// compileShadowSite lowers one shadowed instruction; nil when the
// instruction has no register destination (defensive — the tracked set
// always does).
func (sh *Shadow) compileShadowSite(kernel string, in *sass.Instr) *shadowSite {
	dstReg, ok := in.DestReg()
	if !ok {
		return nil
	}
	s := &shadowSite{
		sh:     sh,
		dstReg: dstReg,
		kernel: kernel,
		pc:     in.PC,
		sass:   in.String(),
		loc:    in.Loc,
	}
	s.fmt, _ = in.Op.SrcFormat()
	s.sigThresh = sh.sigThresh32
	if s.fmt == fpval.FP16 {
		s.sigThresh = sh.sigThresh16
	}
	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I, sass.OpHADD2:
		s.nsrc, s.addLike, s.op = 2, true, shadowAdd
	case sass.OpFMUL, sass.OpFMUL32I, sass.OpHMUL2:
		s.nsrc, s.op = 2, shadowMul
	case sass.OpFFMA, sass.OpFFMA32I, sass.OpHFMA2:
		s.nsrc, s.addLike, s.op = 3, true, shadowFMA
	case sass.OpMUFU:
		s.nsrc = 1
		mod := ""
		if len(in.Mods) > 0 {
			mod = in.Mods[0]
		}
		switch mod {
		case "RCP":
			s.eval = func(a, _, _ float64) float64 { return 1 / a }
		case "RSQ":
			s.eval = func(a, _, _ float64) float64 { return 1 / math.Sqrt(a) }
		case "SQRT":
			s.eval = func(a, _, _ float64) float64 { return math.Sqrt(a) }
		case "SIN":
			s.eval = func(a, _, _ float64) float64 { return math.Sin(a) }
		case "COS":
			s.eval = func(a, _, _ float64) float64 { return math.Cos(a) }
		case "EX2":
			s.eval = func(a, _, _ float64) float64 { return math.Exp2(a) }
		case "LG2":
			s.eval = func(a, _, _ float64) float64 { return math.Log2(a) }
		default:
			s.eval = func(a, _, _ float64) float64 { return a }
		}
	default:
		return nil
	}
	for i := 0; i < s.nsrc; i++ {
		s.srcs[i] = device.LowerValSrc(&in.Operands[i+1], s.fmt)
	}

	lk := locKey{kernel, in.PC}
	if c, ok := sh.sites[lk]; ok {
		s.counts = c
	} else {
		s.counts = &shadowCounts{}
		sh.sites[lk] = s.counts
	}
	shadowSites.Add(1)
	return s
}

// gen is the live generation tag for a block in the current launch: stale
// cells from other launches (epoch) or other blocks sharing the slab never
// match, which is what makes the sequential slab (reused across blocks) and
// the shard's per-range slabs (fresh per range) behave identically.
func (sh *Shadow) gen(block int) uint64 {
	return sh.epoch<<32 | uint64(block+1)
}

// capture resolves every source operand's shadow value for every executing
// lane into the scratch slot, reading live cells where the generation and
// bit pattern still match and promoting (and caching) the real register
// value otherwise. It returns the number of promotions — the resync count.
func (s *shadowSite) capture(ctx *device.InjCtx, ws *warpShadow, gen uint64, slot *shadowScratch) uint64 {
	var resyncs uint64
	for m := ctx.ExecMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		lo := &slot[l]
		for i := 0; i < s.nsrc; i++ {
			src := &s.srcs[i]
			reg, isReg := src.Reg()
			if !isReg {
				lo.v[i] = src.Val(ctx, l)
				continue
			}
			cell := ws.cell(l, reg)
			raw := src.Bits(ctx, l)
			if cell.gen == gen && cell.bits == raw && cell.fmt == s.fmt {
				lo.v[i] = src.Mod(cell.val)
				continue
			}
			resyncs++
			base := src.Base(ctx, l)
			*cell = shadowCell{gen: gen, val: base, bits: raw, fmt: s.fmt}
			lo.v[i] = src.Mod(base)
		}
	}
	return resyncs
}

// judge runs the paired FP64 execution for every executing lane, updates the
// destination's shadow cells, and reduces the lanes to at most one finding
// candidate (worst kind first, then largest damage; ties keep the lowest
// lane). It is pure with respect to shared sanitizer state: the live after
// call and the block-range shard (shadow_shard.go) share it.
func (s *shadowSite) judge(ctx *device.InjCtx, ws *warpShadow, gen uint64, slot *shadowScratch) (best shadowCand, found bool) {
	for m := ctx.ExecMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		lo := &slot[l]
		var shadow float64
		switch s.op {
		case shadowAdd:
			shadow = lo.v[0] + lo.v[1]
		case shadowMul:
			shadow = lo.v[0] * lo.v[1]
		case shadowFMA:
			shadow = math.FMA(lo.v[0], lo.v[1], lo.v[2])
		default:
			shadow = s.eval(lo.v[0], lo.v[1], lo.v[2])
		}
		realBits := ctx.Warp.Reg(l, s.dstReg)
		var real float64
		if s.fmt == fpval.FP16 {
			real = float64(fpval.F16ToFloat32(uint16(realBits)))
		} else {
			real = float64(math.Float32frombits(realBits))
		}
		var c shadowCand
		ok := false
		if !s.quiet(shadow, real, lo) {
			c, ok = s.classify(shadow, real, lo)
		}
		cellVal := shadow
		if ok && c.kind == KindDivergence {
			// Resync after a divergence: repeating the same structural
			// mismatch at every downstream use adds no information.
			cellVal = real
		}
		*ws.cell(l, s.dstReg) = shadowCell{gen: gen, val: cellVal, bits: realBits, fmt: s.fmt}
		if ok {
			c.lane = l
			if !found || c.kind > best.kind ||
				(c.kind == best.kind && (c.lost > best.lost || (c.lost == best.lost && c.relErr > best.relErr))) {
				best, found = c, true
			}
		}
	}
	return best, found
}

// quiet is classify's conservative pre-test: true proves classify would
// return !ok for the lane, false only sends the lane to classify. It reads
// the FP64 exponent fields instead of calling math.Ilogb and compares
// without dividing:
//
//   - a field of all ones (INF/NaN) in real or shadow is left to classify;
//   - for add-like sites with both terms non-zero, the cancellation depth
//     max(ilogb t1, ilogb t2) − ilogb shadow is exact from the biased
//     exponents when t1, t2 and the shadow are all normal FP64 values;
//     any zero, subnormal or non-finite value among them is left to
//     classify, which falls back to math.Ilogb;
//   - relErr = fl(d / denom) cannot exceed the power-of-two threshold T
//     when d <= T·denom holds exactly (rounding is monotone and T is
//     representable), and T·denom is exact while it is a normal number;
//     below that only d == 0 (relErr 0) is trusted.
func (s *shadowSite) quiet(shadow, real float64, lo *shadowLaneOps) bool {
	const expAll = 0x7FF
	se := math.Float64bits(shadow) >> 52 & expAll
	if se == expAll || math.Float64bits(real)>>52&expAll == expAll {
		return false
	}
	if s.addLike {
		t1, t2 := lo.v[0], lo.v[1]
		if s.nsrc == 3 {
			t1, t2 = lo.v[0]*lo.v[1], lo.v[2]
		}
		if t1 != 0 && t2 != 0 {
			e1 := math.Float64bits(t1) >> 52 & expAll
			e2 := math.Float64bits(t2) >> 52 & expAll
			if se == 0 || e1 == 0 || e2 == 0 || e1 == expAll || e2 == expAll {
				return false
			}
			if int(max(e1, e2))-int(se) >= s.sh.cfg.CancelBits {
				return false
			}
		}
	}
	d := math.Abs(real - shadow)
	bound := s.sigThresh * max(math.Abs(real), math.Abs(shadow))
	return d <= bound && (bound >= 0x1p-1022 || d == 0)
}

// classify triages one lane's paired execution; ok is false for the
// no-drift case (the overwhelmingly common one).
func (s *shadowSite) classify(shadow, real float64, lo *shadowLaneOps) (shadowCand, bool) {
	realExc := math.IsInf(real, 0) || math.IsNaN(real)
	shExc := math.IsInf(shadow, 0) || math.IsNaN(shadow)
	if realExc != shExc {
		return shadowCand{kind: KindDivergence, real: real, shadow: shadow}, true
	}
	if realExc {
		// Both exceptional: the detector's territory, not drift.
		return shadowCand{}, false
	}
	if s.addLike {
		var t1, t2 float64
		if s.nsrc == 3 {
			t1, t2 = lo.v[0]*lo.v[1], lo.v[2]
		} else {
			t1, t2 = lo.v[0], lo.v[1]
		}
		if t1 != 0 && t2 != 0 && !math.IsInf(t1, 0) && !math.IsInf(t2, 0) {
			bigExp := math.Ilogb(math.Abs(t1))
			if e := math.Ilogb(math.Abs(t2)); e > bigExp {
				bigExp = e
			}
			resExp := -1075 // below every representable exponent: total cancellation
			if shadow != 0 {
				resExp = math.Ilogb(math.Abs(shadow))
			}
			if lost := bigExp - resExp; lost >= s.sh.cfg.CancelBits {
				return shadowCand{
					kind: KindCancellation, real: real, shadow: shadow,
					relErr: relativeError(real, shadow), lost: lost,
				}, true
			}
		}
	}
	relErr := relativeError(real, shadow)
	if relErr > s.sigThresh {
		return shadowCand{
			kind: KindSignificanceLoss, real: real, shadow: shadow,
			relErr: relErr, lost: lostSignificandBits(relErr, s.fmt),
		}, true
	}
	return shadowCand{}, false
}

// relativeError is |real−shadow| / max(|real|,|shadow|); zero when both are
// zero. Finite for finite inputs.
func relativeError(real, shadow float64) float64 {
	denom := math.Abs(real)
	if a := math.Abs(shadow); a > denom {
		denom = a
	}
	if denom == 0 {
		return 0
	}
	return math.Abs(real-shadow) / denom
}

// lostSignificandBits converts a relative error into "bits of the format's
// significand that are noise", clamped to the significand width.
func lostSignificandBits(relErr float64, f fpval.Format) int {
	mant := 24
	if f == fpval.FP16 {
		mant = 11
	}
	if relErr <= 0 {
		return 0
	}
	lost := mant + math.Ilogb(relErr) + 1
	if lost < 0 {
		lost = 0
	}
	if lost > mant {
		lost = mant
	}
	return lost
}

// emit materializes and ships one finding — the under-cap path of the after
// call, also driven by the shard merge (with an `at` hook positioning the
// timeline before the channel push). The caller has already checked the
// per-location cap.
func (sh *Shadow) emit(s *shadowSite, c *shadowCand, dev *device.Device, at func()) error {
	s.counts.emitted++
	f := Finding{
		Kind:     c.kind,
		Kernel:   s.kernel,
		PC:       s.pc,
		SASS:     s.sass,
		Loc:      s.loc,
		Lane:     c.lane,
		Real:     c.real,
		Shadow:   c.shadow,
		RelErr:   c.relErr,
		LostBits: c.lost,
	}
	sh.findings = append(sh.findings, f)
	if sh.cfg.OnFinding != nil {
		sh.cfg.OnFinding(f)
	}
	sh.report(f)
	if at != nil {
		at()
	}
	return dev.PushPacket(device.Packet{Words: sh.cfg.FindingWords, Payload: f})
}

// before is the injected pre-execution capture: the destination may alias a
// source, so operand shadow values are always resolved before the write.
func (s *shadowSite) before(ctx *device.InjCtx) error {
	sh := s.sh
	wib := ctx.Warp.WarpInBlock
	sh.stats.Resyncs += s.capture(ctx, sh.slabs.warp(wib), sh.gen(ctx.Warp.Block), sh.scratchFor(wib))
	return nil
}

// after runs the paired execution, triages and emits.
func (s *shadowSite) after(ctx *device.InjCtx) error {
	sh := s.sh
	wib := ctx.Warp.WarpInBlock
	cand, ok := s.judge(ctx, sh.slabs.warp(wib), sh.gen(ctx.Warp.Block), sh.scratchFor(wib))
	sh.stats.ShadowedOps++
	if !ok {
		return nil
	}
	sh.stats.bump(cand.kind, 1)
	s.counts.kinds[cand.kind]++
	if s.counts.emitted < sh.cfg.MaxFindingsPerSite {
		return sh.emit(s, &cand, ctx.Dev, nil)
	}
	return nil
}

// scratchFor returns the warp's operand capture slot, growing the pool on
// first contact with a deeper block shape.
func (sh *Shadow) scratchFor(warpInBlock int) *shadowScratch {
	if warpInBlock >= len(sh.scratch) {
		grown := make([]shadowScratch, warpInBlock+1)
		copy(grown, sh.scratch)
		sh.scratch = grown
	}
	return &sh.scratch[warpInBlock]
}
