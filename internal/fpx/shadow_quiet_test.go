package fpx

import (
	"math"
	"testing"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// judge runs classify only for lanes the exponent-bit quiet test cannot
// clear, so quiet must never clear a lane classify would flag. These tests
// drive both over seeded operands and over the boundaries the two share:
// subnormal operands and results, cancellation exactly at CancelBits, and
// relative error exactly at the significance threshold.

// quietSites compiles one shadow site per paired-execution shape.
func quietSites(t *testing.T, sh *Shadow) []*shadowSite {
	t.Helper()
	ins := []sass.Instr{
		sass.NewInstr(sass.OpFADD, sass.Reg(4), sass.Reg(1), sass.Reg(2)),
		sass.NewInstr(sass.OpFMUL, sass.Reg(4), sass.Reg(1), sass.Reg(2)),
		sass.NewInstr(sass.OpFFMA, sass.Reg(4), sass.Reg(1), sass.Reg(2), sass.Reg(3)),
		sass.NewInstr(sass.OpHADD2, sass.Reg(4), sass.Reg(1), sass.Reg(2)),
		sass.NewInstr(sass.OpMUFU, sass.Reg(4), sass.Reg(1)).WithMods("RCP"),
	}
	var sites []*shadowSite
	for i := range ins {
		ins[i].PC = i
		s := sh.compileShadowSite("quiet_kernel", &ins[i])
		if s == nil {
			t.Fatalf("%v compiled no shadow site", ins[i].Op)
		}
		sites = append(sites, s)
	}
	return sites
}

// pairedEval is the site's FP64 paired execution, as judge computes it.
func pairedEval(s *shadowSite, v [3]float64) float64 {
	switch s.op {
	case shadowAdd:
		return v[0] + v[1]
	case shadowMul:
		return v[0] * v[1]
	case shadowFMA:
		return math.FMA(v[0], v[1], v[2])
	}
	return s.eval(v[0], v[1], v[2])
}

// checkQuiet asserts quiet ⇒ !classify-ok for one lane and reports which
// side decided.
func checkQuiet(t *testing.T, s *shadowSite, v [3]float64, shadow, real float64) (quiet, flagged bool) {
	t.Helper()
	lo := &shadowLaneOps{v: v}
	quiet = s.quiet(shadow, real, lo)
	_, flagged = s.classify(shadow, real, lo)
	if quiet && flagged {
		t.Fatalf("site %d (op %d): quiet cleared operands %v shadow %v real %v, but classify flags it",
			s.pc, s.op, v, shadow, real)
	}
	return quiet, flagged
}

func TestShadowQuietNeverHidesAFinding(t *testing.T) {
	sh := NewShadow(DefaultShadowConfig())
	sites := quietSites(t, sh)
	st := uint64(0x13198a2e03707344)
	next := func() uint64 {
		st ^= st << 13
		st ^= st >> 7
		st ^= st << 17
		return st
	}
	// operand draws FP32 values: normals across the exponent range,
	// subnormals, zeros and, rarely, specials.
	operand := func() float64 {
		r := next()
		switch r % 16 {
		case 0:
			return 0
		case 1, 2:
			return float64(math.Float32frombits(uint32(r>>8) & 0x807fffff)) // subnormal
		case 3:
			return float64(math.Float32frombits(uint32(r >> 20))) // raw bits
		default:
			e := 127 + int(r>>40%40) - 20
			return float64(math.Float32frombits(uint32(r>>63)<<31 | uint32(e)<<23 | uint32(r>>8)&0x7fffff))
		}
	}
	var quiets, flags int
	for i := 0; i < 400000; i++ {
		s := sites[i%len(sites)]
		v := [3]float64{operand(), operand(), operand()}
		if i%7 == 0 && s.addLike {
			// Near-cancelling terms: the second addend mirrors the first
			// (or the product) with a few low bits changed.
			t1 := v[0]
			if s.nsrc == 3 {
				t1 = v[0] * v[1]
			}
			v[s.nsrc-1] = -float64(float32(t1)) * (1 + float64(next()%64)*0x1p-23)
		}
		shadow := pairedEval(s, v)
		real := float64(float32(shadow))
		if s.fmt == fpval.FP16 {
			real = float64(fpval.F16ToFloat32(fpval.F16FromFloat32(float32(shadow))))
		}
		if i%3 == 0 {
			// Perturb the real result by up to 2^13 FP32 ulps around the
			// significance threshold.
			real = float64(math.Float32frombits(math.Float32bits(float32(real)) + uint32(next()%(1<<14))))
		}
		q, f := checkQuiet(t, s, v, shadow, real)
		if q {
			quiets++
		}
		if f {
			flags++
		}
	}
	if quiets < 100000 || flags < 10000 {
		t.Fatalf("quiet cleared %d lanes and classify flagged %d; want both sides exercised", quiets, flags)
	}
}

func TestShadowQuietBoundaries(t *testing.T) {
	sh := NewShadow(DefaultShadowConfig())
	sites := quietSites(t, sh)
	fadd, fmul, ffma := sites[0], sites[1], sites[2]
	cancel := sh.cfg.CancelBits
	thresh := fadd.sigThresh

	// Cancellation exactly at CancelBits is a finding; one bit short is
	// not (and the exact result then has no relative error).
	at := [3]float64{1, -(1 - math.Ldexp(1, -cancel))}
	if q, f := checkQuiet(t, fadd, at, pairedEval(fadd, at), pairedEval(fadd, at)); q || !f {
		t.Fatalf("cancellation at CancelBits: quiet=%v flagged=%v, want a finding", q, f)
	}
	short := [3]float64{1, -(1 - math.Ldexp(1, 1-cancel))}
	if q, f := checkQuiet(t, fadd, short, pairedEval(fadd, short), pairedEval(fadd, short)); !q || f {
		t.Fatalf("cancellation at CancelBits-1: quiet=%v flagged=%v, want quiet", q, f)
	}
	// The same depth through an FFMA product term.
	fv := [3]float64{2, 0.5, -(1 - math.Ldexp(1, -cancel))}
	if q, f := checkQuiet(t, ffma, fv, pairedEval(ffma, fv), pairedEval(ffma, fv)); q || !f {
		t.Fatalf("FFMA cancellation at CancelBits: quiet=%v flagged=%v, want a finding", q, f)
	}
	// Total cancellation (zero shadow) is left to classify.
	zero := [3]float64{1.5, -1.5}
	if q, f := checkQuiet(t, fadd, zero, 0, 0); q || !f {
		t.Fatalf("total cancellation: quiet=%v flagged=%v, want a finding", q, f)
	}

	// Relative error exactly at the threshold is not a finding and is
	// cleared; just above it is a finding.
	one := [3]float64{1, 1}
	if q, f := checkQuiet(t, fmul, one, 1, 1-thresh); !q || f {
		t.Fatalf("relErr == sigThresh: quiet=%v flagged=%v, want quiet", q, f)
	}
	if q, f := checkQuiet(t, fmul, one, 1, math.Nextafter(1-thresh, 0)); q || !f {
		t.Fatalf("relErr just above sigThresh: quiet=%v flagged=%v, want a finding", q, f)
	}

	// Subnormal operands and results: exponent bits cannot place them, so
	// quiet defers to classify's math.Ilogb.
	sub := float64(math.Float32frombits(0x00000003))
	for _, v := range [][3]float64{{sub, -sub / 3}, {sub, 1}, {1, -1 + 0x1p-30}} {
		shadow := pairedEval(fadd, v)
		checkQuiet(t, fadd, v, shadow, float64(float32(shadow)))
	}
	tiny := [3]float64{sub, 0x1p-100}
	if q, _ := checkQuiet(t, fmul, tiny, pairedEval(fmul, tiny), 0); q {
		t.Fatal("FP64-subnormal shadow against a zero real result was cleared")
	}
	// Non-finite results (divergence, or both exceptional) go to classify.
	for _, c := range [][2]float64{{math.Inf(1), 1}, {1, math.Inf(1)}, {math.NaN(), math.NaN()}} {
		if q, _ := checkQuiet(t, fmul, one, c[0], c[1]); q {
			t.Fatalf("non-finite shadow %v / real %v was cleared", c[0], c[1])
		}
	}
}
