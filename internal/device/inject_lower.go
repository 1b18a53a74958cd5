package device

import (
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// This file is the instrumentation-side counterpart of lower.go: pre-resolved
// operand accessors for injected tool code. Where lower.go compiles the
// executor's operand reads into direct-threaded thunks, these helpers compile
// a tool's per-site operand *classification* — the analyzer's worst-lane
// class reduction and the detector's destination check — so the per-dynamic-
// instruction path never re-switches on operand kind, never re-parses a
// GENERIC constant, and iterates executing lanes by mask bits instead of
// probing all 32.

// classKind is the compile-time shape of a ClassSrc.
type classKind uint8

const (
	// classConst is an operand whose class is fully known at lowering time:
	// IMM_DOUBLE and GENERIC constants, the zero register, and the operand
	// kinds the analyzer reads as no value at all (memory references,
	// integer immediates, special registers).
	classConst classKind = iota
	// classCBank is a constant-bank read: runtime-valued but warp-invariant,
	// so one classification serves every lane.
	classCBank
	// classReg32/64/16/BF16 are per-lane register reads in the respective
	// format; FP64 reads the pair (reg, reg+1).
	classReg32
	classReg64
	classReg16
	classRegBF16
)

// ClassSrc classifies one instruction operand for injected tool code, with
// the operand kind, register numbers, format and compile-time value resolved
// once at instrumentation time (Listing 2's IMM/GENERIC resolution moved out
// of the per-lane runtime path).
type ClassSrc struct {
	kind      classKind
	reg       int
	bank, off int
	fmt       fpval.Format
	konst     fpval.Class
}

// LowerClassSrc compiles an operand classifier for format f. The runtime
// behaviour matches InjCtx.OperandBits + per-lane classification exactly:
// operand kinds OperandBits rejects fold to class VAL0 here.
func LowerClassSrc(op *sass.Operand, f fpval.Format) ClassSrc {
	switch op.Type {
	case sass.OperandReg:
		if op.Reg == sass.RZ {
			return ClassSrc{kind: classConst, konst: fpval.Classify(f, 0)}
		}
		switch f {
		case fpval.FP64:
			return ClassSrc{kind: classReg64, reg: op.Reg}
		case fpval.FP16:
			return ClassSrc{kind: classReg16, reg: op.Reg}
		case fpval.BF16:
			return ClassSrc{kind: classRegBF16, reg: op.Reg}
		default:
			return ClassSrc{kind: classReg32, reg: op.Reg}
		}
	case sass.OperandCBank:
		return ClassSrc{kind: classCBank, bank: op.Bank, off: op.Off, fmt: f}
	case sass.OperandImmDouble:
		var raw uint64
		switch f {
		case fpval.FP64:
			raw = math.Float64bits(op.Imm)
		case fpval.FP16:
			raw = uint64(fpval.F16FromFloat32(float32(op.Imm)))
		default:
			raw = uint64(math.Float32bits(float32(op.Imm)))
		}
		return ClassSrc{kind: classConst, konst: fpval.Classify(f, raw)}
	case sass.OperandGeneric:
		// The one place a GENERIC constant is parsed: per site, not per lane
		// per dynamic call.
		return ClassSrc{kind: classConst, konst: fpval.Classify(f, genericBits(op.Gen, f))}
	default:
		// OperandBits reports no value for these kinds; the worst-lane fold
		// over "no value" keeps its VAL0 seed.
		return ClassSrc{kind: classConst, konst: fpval.Zero}
	}
}

// Const reports whether the operand's class was fully resolved at lowering
// time (no runtime read at all).
func (s *ClassSrc) Const() bool { return s.kind == classConst }

// Uniform reports whether the operand classifies identically in every lane,
// so a site whose operands are all uniform needs no lane loop.
func (s *ClassSrc) Uniform() bool { return s.kind == classConst || s.kind == classCBank }

// Worst returns the most severe IEEE class the operand takes across the
// executing lanes (NaN > INF > SUB > VAL > VAL0). Compile-time operands
// return their baked class; constant-bank operands classify one warp-
// invariant read; register operands take the column scan, whose two
// reductions decide the worst class exactly (scanClass).
func (s *ClassSrc) Worst(c *InjCtx) fpval.Class {
	switch s.kind {
	case classConst:
		return s.konst
	case classCBank:
		if s.fmt == fpval.FP64 {
			lo := c.Dev.CBankRead(s.bank, s.off)
			hi := c.Dev.CBankRead(s.bank, s.off+4)
			return fpval.Classify64(fpval.Pair64(lo, hi))
		}
		return fpval.Classify(s.fmt, uint64(c.Dev.CBankRead(s.bank, s.off)))
	}
	return scanClass(c.Warp, s.kind, s.reg, c.ExecMask)
}

// ExcMasks32 classifies a 32-bit register across the executing lanes,
// returning the lane masks whose values are NaN, INF and subnormal. RZ
// (and by extension any all-zero register) yields empty masks. This is the
// detector's slimmed injected body: the common no-exception call is one
// column scan with no per-lane branching, and callers only walk lanes when
// a mask is non-zero.
func (c *InjCtx) ExcMasks32(reg int) (nan, inf, sub uint32) {
	return c.excMasks(classReg32, reg)
}

// ExcMasks64 is ExcMasks32 for the FP64 register pair (reg, reg+1).
func (c *InjCtx) ExcMasks64(reg int) (nan, inf, sub uint32) {
	return c.excMasks(classReg64, reg)
}

// ExcMasks16 is ExcMasks32 for the FP16 value in a register's low half.
func (c *InjCtx) ExcMasks16(reg int) (nan, inf, sub uint32) {
	return c.excMasks(classReg16, reg)
}

func (c *InjCtx) excMasks(k classKind, reg int) (nan, inf, sub uint32) {
	if reg == sass.RZ {
		return
	}
	w := c.Warp
	if cl := scanClass(w, k, reg, c.ExecMask); !cl.Exceptional() {
		return
	}
	// Slow path: some lane is exceptional; classify lane by lane.
	for m := c.ExecMask; m != 0; m &= m - 1 {
		bit := m & -m
		r := w.regs[bits.TrailingZeros32(m)]
		var cl fpval.Class
		switch k {
		case classReg32:
			cl = fpval.Classify32(r[reg])
		case classReg64:
			cl = fpval.Classify64(fpval.Pair64(r[reg], r[reg+1]))
		default:
			cl = fpval.Classify16(uint16(r[reg]))
		}
		switch cl {
		case fpval.NaN:
			nan |= bit
		case fpval.Inf:
			inf |= bit
		case fpval.Subnormal:
			sub |= bit
		}
	}
	return
}

// colFmt is the magnitude layout of a format held in one 32-bit register:
// the sign-clearing mask, the smallest normal magnitude and the all-ones
// exponent (the smallest INF/NaN magnitude).
type colFmt struct{ abs, minNormal, inf uint32 }

var colFmts = [...]colFmt{
	classReg32:   {0x7FFFFFFF, 0x00800000, 0x7F800000},
	classReg16:   {0x7FFF, 0x0400, 0x7C00},
	classRegBF16: {0x7FFF, 0x0080, 0x7F80},
}

// scanClass is the column scan behind Worst and ExcMasks: one pass over a
// register's lane column reducing the magnitudes |v| (value bits with the
// sign cleared) to hi = max |v| and lo = min(|v|-1), where a zero lane
// wraps to the maximum and so drops out of the minimum. IEEE magnitudes
// order like their bit patterns — zero, subnormals, normals, INF, then
// the NaNs — so the worst class over the executing lanes is
//
//   - NaN when hi > inf, INF when hi == inf (no lane above it is a NaN),
//   - else Subnormal when lo < minNormal-1 (some non-zero lane lies below
//     the smallest normal),
//   - else Zero when hi == 0 (every lane zero, or no lane executing) and
//     Normal otherwise.
//
// The full-mask loop walks the lane-stride column of w.backing with the
// bounds checks proved away (laneCol).
func scanClass(w *Warp, k classKind, reg int, exec uint32) fpval.Class {
	if k == classReg64 {
		lo, hi := scan64(w, reg, exec)
		return magClass(lo, hi, 1<<52, 0x7FF<<52)
	}
	f := colFmts[k]
	lo, hi := scan32(w, reg, exec, f.abs)
	return magClass(lo, hi, f.minNormal, f.inf)
}

func magClass[T uint32 | uint64](lo, hi, minNormal, inf T) fpval.Class {
	switch {
	case hi > inf:
		return fpval.NaN
	case hi == inf:
		return fpval.Inf
	case lo < minNormal-1:
		return fpval.Subnormal
	case hi == 0:
		return fpval.Zero
	}
	return fpval.Normal
}

// scan32 reduces one 32-bit register column (masked to abs) over exec.
// Under a partial mask a lane outside exec reads as zero, which neither
// reduction can see, so both loops stay branch- and bounds-check-free.
func scan32(w *Warp, reg int, exec, abs uint32) (lo, hi uint32) {
	lo = ^uint32(0)
	st := w.stride
	col := laneCol(w, int32(reg), (WarpSize-1)*st+1)
	if exec == fullExec {
		for base := uint(0); base < uint(len(col)); base += uint(st) {
			a := col[base] & abs
			lo, hi = min(lo, a-1), max(hi, a)
		}
		return lo, hi
	}
	for base, m := uint(0), exec; base < uint(len(col)); base, m = base+uint(st), m>>1 {
		a := col[base] & abs & -(m & 1)
		lo, hi = min(lo, a-1), max(hi, a)
	}
	return lo, hi
}

// scan64 reduces the FP64 register-pair column (reg, reg+1) over exec.
func scan64(w *Warp, reg int, exec uint32) (lo, hi uint64) {
	lo = ^uint64(0)
	st := w.stride
	n := (WarpSize-1)*st + 1
	cl, ch := laneCol(w, int32(reg), n), laneCol(w, int32(reg+1), n)
	if exec == fullExec {
		for base := uint(0); base < uint(len(cl)); base += uint(st) {
			a := uint64(ch[base]&0x7FFFFFFF)<<32 | uint64(cl[base])
			lo, hi = min(lo, a-1), max(hi, a)
		}
		return lo, hi
	}
	for base, m := uint(0), uint64(exec); base < uint(len(cl)); base, m = base+uint(st), m>>1 {
		a := (uint64(ch[base]&0x7FFFFFFF)<<32 | uint64(cl[base])) & -(m & 1)
		lo, hi = min(lo, a-1), max(hi, a)
	}
	return lo, hi
}

// NewToolCtx returns a standalone injection context over a fresh full-mask
// warp on its own device — a harness for tool microbenchmarks and allocation
// tests that drive injected bodies directly, without a launch. numRegs sizes
// the per-lane register file; registers are reachable through the context's
// Warp.
func NewToolCtx(numRegs int) *InjCtx {
	return &InjCtx{
		Dev:      New(DefaultConfig()),
		Warp:     newWarp(0, 0, 0, numRegs, WarpSize),
		ExecMask: fullExec,
	}
}
