package device

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gpufpx/internal/sass"
)

// fmul32 replaces the host multiply on every lowered and fused FMUL, so it
// must be bit-identical to it on every input pair. The interp executor
// keeps the native a*b as the independent oracle.

// fmulSpecials is the edge-value grid: signed zeros, the subnormal range
// ends, the normal range ends, infinities, 1.0, and quiet and signalling
// NaNs with payloads of both signs.
var fmulSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, // ±min subnormal
	0x007fffff, 0x807fffff, // ±max subnormal
	0x00800000, 0x80800000, // ±min normal
	0x7f7fffff, 0xff7fffff, // ±max finite
	0x7f800000, 0xff800000, // ±Inf
	0x3f800000,             // 1.0
	0x7fc00000, 0xffc00000, // ±default quiet NaN
	0x7fc12345, 0xffe00001, // quiet NaNs with payloads
	0x7fa00001, 0xff800001, // signalling NaNs with payloads
}

// checkFMul32 compares fmul32 with the host multiply, bare and through the
// FTZ output flush. For NaN×NaN the host's answer depends on which operand
// the compiler placed first, so there fmul32 must return the first
// operand's NaN quieted, and the host must agree with one of the orders.
func checkFMul32(t *testing.T, a, b uint32) bool {
	t.Helper()
	fa, fb := math.Float32frombits(a), math.Float32frombits(b)
	got, want := math.Float32bits(fmul32(fa, fb)), math.Float32bits(fa*fb)
	if fa != fa && fb != fb {
		qa, qb := a|1<<22, b|1<<22
		if want != qa && want != qb {
			t.Errorf("host %#08x × %#08x = %#08x, want one operand quieted", a, b, want)
			return false
		}
		want = qa
	}
	if got != want {
		t.Errorf("fmul32(%#08x, %#08x) = %#08x, want %#08x", a, b, got, want)
		return false
	}
	// The generic .FTZ closures write out32(fmul32(a, b), true).
	if got, want := out32(fmul32(fa, fb), true), out32(math.Float32frombits(want), true); got != want {
		t.Errorf("FTZ fmul32(%#08x, %#08x) = %#08x, want %#08x", a, b, got, want)
		return false
	}
	return true
}

// fmulOperand draws one biased operand: random sign and significand with the
// given biased exponent field (0 gives a subnormal or zero).
func fmulOperand(r uint64, exp uint32) uint32 {
	return uint32(r>>63)<<31 | exp<<23 | uint32(r>>8)&0x7fffff
}

func TestFMul32MatchesHardware(t *testing.T) {
	for _, a := range fmulSpecials {
		for _, b := range fmulSpecials {
			checkFMul32(t, a, b)
		}
	}

	// Seeded pairs biased to where the host multiply takes its subnormal
	// assist or rounds at the range edges: products in and around the
	// subnormal range (biased exponent sum 103..129), some with short
	// significands, products at the overflow boundary (380..383), subnormal
	// inputs, and raw bit patterns.
	const pairs = 10_000_000
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	bad := 0
	for i := 0; i < pairs && bad < 10; i++ {
		r1, r2 := next(), next()
		var a, b uint32
		switch i % 5 {
		case 0, 1, 4: // product near the subnormal range or the overflow edge
			sum := 103 + uint32(r1%27)
			if i%5 == 1 {
				sum = 380 + uint32(r1%4)
			}
			ea := uint32(r2 % 255)
			if ea > sum || sum-ea > 254 {
				ea = sum / 2
			}
			a, b = fmulOperand(r1, ea), fmulOperand(r2, sum-ea)
			if i%5 == 4 {
				// Short significands: the product is often exact or an
				// exact tie at the rounding point, where a double
				// rounding would show.
				a &^= 0x1fff
				b &^= 0x3fff
			}
		case 2: // subnormal input against any finite scale
			a, b = fmulOperand(r1, 0), fmulOperand(r2, 100+uint32(r2%155))
		case 3: // raw bits: NaNs, infinities and everything else
			a, b = uint32(r1), uint32(r2)
		}
		if !checkFMul32(t, a, b) {
			bad++
		}
	}
}

// fmulShapes is one FMUL per operand shape the lowering and fusion
// specialize — reg×reg, reg×c-bank, reg×imm (FMUL32I), uniform×uniform and
// the generic .FTZ form — under the full warp, the per-lane shapes again
// under a half-populated exec mask, then stored per thread. The inputs a, b come
// from per-thread arrays; c[0x0][0x168] and c[0x0][0x16c] are uniform
// scales. faddShapes is the same listing with every FMUL an FADD.
var fmulShapes = sass.MustParse("fmul_shapes", fmulShapesSrc)

var faddShapes = sass.MustParse("fadd_shapes", strings.ReplaceAll(fmulShapesSrc, "FMUL", "FADD"))

const fmulShapesSrc = `
S2R R0, SR_TID.X ;
SHL R1, R0, 0x2 ;
MOV R2, c[0x0][0x160] ;
IADD R2, R2, R1 ;
LDG.E R3, [R2] ;
MOV R2, c[0x0][0x164] ;
IADD R2, R2, R1 ;
LDG.E R4, [R2] ;
LOP.AND R10, R0, 0x1 ;
ISETP.EQ.AND P0, PT, R10, 0x0, PT ;
FMUL R5, R3, R4 ;
FMUL R6, R3, c[0x0][0x168] ;
FMUL32I R7, R3, 0x7e800000 ;
FMUL R8, c[0x0][0x168], c[0x0][0x16c] ;
FMUL.FTZ R9, R3, -R4 ;
@P0 FMUL R11, R4, R3 ;
@P0 FMUL R12, R4, c[0x0][0x16c] ;
@P0 FMUL32I R13, R4, 0x00000003 ;
@P0 FMUL.FTZ R14, -R3, R4 ;
SHL R1, R0, 0x6 ;
MOV R2, c[0x0][0x170] ;
IADD R2, R2, R1 ;
STG.E [R2], R5 ;
STG.E [R2+0x4], R6 ;
STG.E [R2+0x8], R7 ;
STG.E [R2+0xc], R8 ;
STG.E [R2+0x10], R9 ;
STG.E [R2+0x14], R11 ;
STG.E [R2+0x18], R12 ;
STG.E [R2+0x1c], R13 ;
STG.E [R2+0x20], R14 ;
EXIT ;
`

// fmulShapeInputs cycles subnormal, NaN-payload and overflow-prone values
// so every shape sees products that land subnormal, saturate to Inf, or
// carry a NaN payload through.
var fmulShapeInputs = []uint32{
	0x1e3ce508, // 1e-20: squares to a subnormal
	0x00000001, // min subnormal
	0x007fffff, // max subnormal
	0x80400000, // negative subnormal
	0x7f7fffff, // max finite: overflows
	0x7f000000, // 2^127
	0x7fc12345, // quiet NaN with payload
	0xffa00001, // signalling NaN with payload
	0x3f800000, // 1.0
	0x1a000000, // 2^-75
	0x26800000, // 2^-50
	0x00000000, // +0
	0xff800000, // -Inf
}

type fmulShapeRun struct {
	out    []uint32
	cycles uint64
	stats  Stats
	regs   []string // After-call observations: pc, lane, destination bits
}

func runFMULShapes(t *testing.T, k *sass.Kernel, mode ExecMode, inject bool) fmulShapeRun {
	t.Helper()
	const threads = 64
	d := New(DefaultConfig())
	a, b, out := d.Alloc(4*threads), d.Alloc(4*threads), d.Alloc(64*threads)
	n := len(fmulShapeInputs)
	for i := 0; i < threads; i++ {
		d.Store32(a+uint32(4*i), fmulShapeInputs[i%n])
		d.Store32(b+uint32(4*i), fmulShapeInputs[(i/n+i*5)%n])
	}
	l := &Launch{Kernel: k, GridDim: 1, BlockDim: threads, Exec: mode,
		Params: []uint32{a, b, 0x26800000, 0x1e3ce508, out}}
	var run fmulShapeRun
	if inject {
		l.Inject = make(map[int][]InjectedCall)
		for i := range k.Instrs {
			in := &k.Instrs[i]
			dst, ok := in.DestReg()
			if !ok || !in.Op.IsFP32Compute() {
				continue
			}
			pc := in.PC
			l.Inject[pc] = append(l.Inject[pc], InjectedCall{When: After, Cost: 8, Fn: func(ctx *InjCtx) error {
				for lane := 0; lane < WarpSize; lane++ {
					if ctx.LaneActive(lane) {
						run.regs = append(run.regs, fmt.Sprintf("pc %d warp %d lane %d: %#08x", pc, ctx.Warp.ID, lane, ctx.Reg32(lane, dst)))
					}
				}
				return nil
			}})
		}
	}
	ls, err := d.Launch(l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16*threads; i++ {
		run.out = append(run.out, d.Load32(out+uint32(4*i)))
	}
	run.cycles, run.stats = ls.Cycles, d.Stats
	return run
}

// TestFMULShapesAgreeAcrossExecutors holds the lowered and fused FMUL and
// FADD specializations to the interp executor on subnormal, NaN-payload
// and overflow operands: identical stored results, cycles and Stats, and —
// with an After call on every FP32 site, which runs the fused chain between
// its call sites — identical destination registers at every site.
func TestFMULShapesAgreeAcrossExecutors(t *testing.T) {
	for _, k := range []*sass.Kernel{fmulShapes, faddShapes} {
		for _, inject := range []bool{false, true} {
			checkShapesAgree(t, k, inject)
		}
	}
}

func checkShapesAgree(t *testing.T, k *sass.Kernel, inject bool) {
	t.Helper()
	ref := runFMULShapes(t, k, ExecInterp, inject)
	if fk := fuseFor(k); fk == nil || fk.chainOps == 0 {
		t.Fatalf("%s compiled no fused chain", k.Name)
	}
	if inject && len(ref.regs) == 0 {
		t.Fatal("no After-call observations")
	}
	for _, mode := range []ExecMode{ExecLowered, ExecFused} {
		got := runFMULShapes(t, k, mode, inject)
		name := fmt.Sprintf("%s %v inject=%v", k.Name, mode, inject)
		for i := range ref.out {
			if got.out[i] != ref.out[i] {
				t.Errorf("%s: thread %d result %d = %#08x, interp %#08x", name, i/16, i%16, got.out[i], ref.out[i])
			}
		}
		if got.cycles != ref.cycles || got.stats != ref.stats {
			t.Errorf("%s: %d cycles %+v, interp %d cycles %+v", name, got.cycles, got.stats, ref.cycles, ref.stats)
		}
		if len(got.regs) != len(ref.regs) {
			t.Fatalf("%s: %d After-call observations, interp %d", name, len(got.regs), len(ref.regs))
		}
		for i := range ref.regs {
			if got.regs[i] != ref.regs[i] {
				t.Errorf("%s: %s, interp %s", name, got.regs[i], ref.regs[i])
			}
		}
	}
}

// wideNaN is DADD/DMUL on FP64 pairs and HADD2/HMUL2 on FP16 low halves,
// per thread: a, b at c[0x0][0x160]/[0x164] (8 bytes each), h, g at
// [0x168]/[0x16c] (4 bytes each), results to [0x170] (24 bytes each).
var wideNaN = sass.MustParse("wide_nan", `
S2R R0, SR_TID.X ;
SHL R1, R0, 0x3 ;
MOV R2, c[0x0][0x160] ;
IADD R2, R2, R1 ;
LDG.E.64 R4, [R2] ;
MOV R2, c[0x0][0x164] ;
IADD R2, R2, R1 ;
LDG.E.64 R6, [R2] ;
SHL R1, R0, 0x2 ;
MOV R2, c[0x0][0x168] ;
IADD R2, R2, R1 ;
LDG.E R12, [R2] ;
MOV R2, c[0x0][0x16c] ;
IADD R2, R2, R1 ;
LDG.E R13, [R2] ;
DADD R8, R4, R6 ;
DMUL R10, R4, R6 ;
HADD2 R14, R12, R13 ;
HMUL2 R15, R12, R13 ;
MOV R1, 0x18 ;
IMAD R2, R0, R1, c[0x0][0x170] ;
STG.E.64 [R2], R8 ;
STG.E.64 [R2+0x8], R10 ;
STG.E [R2+0x10], R14 ;
STG.E [R2+0x14], R15 ;
EXIT ;
`)

// TestWideNaNPayloadsPinned pins DADD/DMUL and HADD2/HMUL2 to the same
// NaN-and-NaN rule as FADD/FMUL — the first operand's NaN, quieted — in
// every executor, and checks the executors agree on every other lane.
func TestWideNaNPayloadsPinned(t *testing.T) {
	in64 := []uint64{0x7ff8000000012345, 0xfff4000000000001, 0x3ff0000000000000, 0x7ff0000000000000, 0}
	in16 := []uint32{0x7e01, 0xfd02, 0x3c00, 0x7c00, 0}
	const threads = 32
	run := func(mode ExecMode) []uint32 {
		d := New(DefaultConfig())
		a, b := d.Alloc(8*threads), d.Alloc(8*threads)
		h, g := d.Alloc(4*threads), d.Alloc(4*threads)
		out := d.Alloc(24 * threads)
		n := len(in64)
		for i := 0; i < threads; i++ {
			d.Store64(a+uint32(8*i), in64[i%n])
			d.Store64(b+uint32(8*i), in64[(i/n+i)%n])
			d.Store32(h+uint32(4*i), in16[i%n])
			d.Store32(g+uint32(4*i), in16[(i/n+i)%n])
		}
		if _, err := d.Launch(&Launch{Kernel: wideNaN, GridDim: 1, BlockDim: threads, Exec: mode,
			Params: []uint32{a, b, h, g, out}}); err != nil {
			t.Fatal(err)
		}
		var res []uint32
		for i := 0; i < 6*threads; i++ {
			res = append(res, d.Load32(out+uint32(4*i)))
		}
		return res
	}
	ref := run(ExecInterp)
	n := len(in64)
	for i := 0; i < threads; i++ {
		a, b := in64[i%n], in64[(i/n+i)%n]
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		if fa != fa && fb != fb {
			want := a | 1<<51
			for j, op := range []string{"DADD", "DMUL"} {
				if got := uint64(ref[6*i+2*j+1])<<32 | uint64(ref[6*i+2*j]); got != want {
					t.Errorf("thread %d: %s %#016x, %#016x = %#016x, want %#016x", i, op, a, b, got, want)
				}
			}
		}
		h, g := in16[i%n], in16[(i/n+i)%n]
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 && g&0x7c00 == 0x7c00 && g&0x3ff != 0 {
			want := h | 0x200
			for j, op := range []string{"HADD2", "HMUL2"} {
				if got := ref[6*i+4+j]; got != want {
					t.Errorf("thread %d: %s %#04x, %#04x = %#04x, want %#04x", i, op, h, g, got, want)
				}
			}
		}
	}
	for _, mode := range []ExecMode{ExecLowered, ExecFused} {
		got := run(mode)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%v: thread %d word %d = %#08x, interp %#08x", mode, i/6, i%6, got[i], ref[i])
			}
		}
	}
}
