package device

import (
	"math/bits"
	"testing"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// The column scan behind ClassSrc.Worst and InjCtx.ExcMasks* (with the
// masks' per-lane slow path) must return exactly what per-lane fpval
// classification returns. This property test compares them over seeded
// lane columns that mix zeros, normals and the IEEE edge patterns of every
// format, under full, partial and empty exec masks.

// colEdges32 are FP32 edge patterns; the low halves double as FP16/BF16
// edges and the pairs (lo, hi) of two draws as FP64 edges.
var colEdges32 = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x00800000, 0x80800000,
	0x7f7fffff, 0x7f800000, 0xff800000, 0x7fc00000, 0xffa00001, 0x3f800000,
	// FP16 / BF16 edges in the low half
	0x00000400, 0x000003ff, 0x00007c00, 0x00007bff, 0x00007e01, 0x00008001,
	0x00000080, 0x0000007f, 0x00007f80, 0x00007f7f, 0x00007fc1, 0x0000ffff,
	// FP64 high words: min normal, subnormal top, Inf, NaN, max finite
	0x00100000, 0x000fffff, 0x7ff00000, 0x7ff80000, 0x7fefffff, 0x80100000,
}

func TestColumnScanMatchesPerLane(t *testing.T) {
	const regs = 8
	ctx := NewToolCtx(regs)
	w := ctx.Warp
	s := uint64(0x243f6a8885a308d3)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	// draw picks a lane value: mostly zeros and normals of every format (so
	// the scan's all-clear outcome is common), sometimes an edge pattern,
	// sometimes raw bits.
	draw := func() uint32 {
		r := next()
		switch r % 8 {
		case 0, 1:
			return 0
		case 2:
			return colEdges32[r>>8%uint64(len(colEdges32))]
		case 3:
			return uint32(r >> 16)
		default:
			// A normal in every format: FP32 exponent 0x40..0xbf, FP16 and
			// BF16 halves with mid-range exponents.
			return uint32(r>>40)&0x807fffff | (0x40+uint32(r>>8)%0x80)<<23 | 0x3000 | uint32(r>>20)&0x0fff
		}
	}
	formats := []struct {
		f    fpval.Format
		kind classKind
	}{{fpval.FP32, classReg32}, {fpval.FP64, classReg64}, {fpval.FP16, classReg16}, {fpval.BF16, classRegBF16}}
	var cleared, walked [4]int
	for trial := 0; trial < 20000; trial++ {
		for l := 0; l < WarpSize; l++ {
			for r := 0; r < regs; r++ {
				w.regs[l][r] = draw()
			}
		}
		switch trial % 4 {
		case 0, 1:
			ctx.ExecMask = fullExec
		case 2:
			ctx.ExecMask = uint32(next())
		default:
			ctx.ExecMask = 1 << (next() % WarpSize)
			if trial%8 == 7 {
				ctx.ExecMask = 0
			}
		}
		reg := int(next() % (regs - 1))
		for fi, fm := range formats {
			var wantWorst fpval.Class
			var wantNaN, wantInf, wantSub uint32
			sev := uint8(0)
			wantWorst = fpval.Zero
			for m := ctx.ExecMask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				raw := uint64(w.regs[l][reg])
				if fm.f == fpval.FP64 {
					raw = fpval.Pair64(w.regs[l][reg], w.regs[l][reg+1])
				}
				cl := fpval.Classify(fm.f, raw)
				if cl.Severity() > sev {
					wantWorst, sev = cl, cl.Severity()
				}
				switch cl {
				case fpval.NaN:
					wantNaN |= 1 << uint(l)
				case fpval.Inf:
					wantInf |= 1 << uint(l)
				case fpval.Subnormal:
					wantSub |= 1 << uint(l)
				}
			}
			if !scanClass(w, fm.kind, reg, ctx.ExecMask).Exceptional() {
				cleared[fi]++
			} else {
				walked[fi]++
			}
			src := LowerClassSrc(&sass.Operand{Type: sass.OperandReg, Reg: reg}, fm.f)
			if got := src.Worst(ctx); got != wantWorst {
				t.Fatalf("trial %d %v reg %d exec %#x: Worst = %v, per-lane %v", trial, fm.f, reg, ctx.ExecMask, got, wantWorst)
			}
			var nan, inf, sub uint32
			switch fm.f {
			case fpval.FP32:
				nan, inf, sub = ctx.ExcMasks32(reg)
			case fpval.FP64:
				nan, inf, sub = ctx.ExcMasks64(reg)
			case fpval.FP16:
				nan, inf, sub = ctx.ExcMasks16(reg)
			default:
				continue
			}
			if nan != wantNaN || inf != wantInf || sub != wantSub {
				t.Fatalf("trial %d %v reg %d exec %#x: masks %#x/%#x/%#x, per-lane %#x/%#x/%#x",
					trial, fm.f, reg, ctx.ExecMask, nan, inf, sub, wantNaN, wantInf, wantSub)
			}
		}
	}
	for fi, fm := range formats {
		if cleared[fi] < 1000 || walked[fi] < 1000 {
			t.Errorf("%v: scan cleared %d columns and walked %d; want both paths exercised", fm.f, cleared[fi], walked[fi])
		}
	}

	// RZ reads as zero in every format: no exception lanes, class VAL0.
	ctx.ExecMask = fullExec
	for _, fm := range formats {
		src := LowerClassSrc(&sass.Operand{Type: sass.OperandReg, Reg: sass.RZ}, fm.f)
		if got := src.Worst(ctx); got != fpval.Zero {
			t.Errorf("%v RZ: Worst = %v, want VAL0", fm.f, got)
		}
	}
	for _, masks := range []func(int) (uint32, uint32, uint32){ctx.ExcMasks32, ctx.ExcMasks64, ctx.ExcMasks16} {
		if nan, inf, sub := masks(sass.RZ); nan|inf|sub != 0 {
			t.Errorf("RZ masks %#x/%#x/%#x, want empty", nan, inf, sub)
		}
	}
}
