package device

import (
	"fmt"
	"math"
	"math/bits"

	"gpufpx/internal/fpval"
	"gpufpx/internal/sass"
)

// lowerInstr builds the thunk for one instruction. Branch, barrier and exit
// control flow stays in executor.step (identical for both executors); their
// thunks are no-ops. Pure instructions with an RZ destination lower to
// no-ops as well: the interpreter computes and discards the result, and the
// computation has no observable effect (detectors read sources via injected
// calls, not via the write).
func lowerInstr(k *sass.Kernel, pc int, m *kernelMeta, lk *loweredKernel) thunk {
	in := &k.Instrs[pc]
	ops := in.Operands
	ftz := m.ftz[pc]
	wide := m.sub[pc] == subWide

	// nop lowers a pure RZ-destination instruction.
	nop := func() thunk {
		lk.nops++
		lk.class[pc] = lowClassNop
		return nopThunk
	}
	// uni marks a uniform-operand broadcast site.
	uni := func(t thunk) thunk {
		lk.uniform++
		lk.class[pc] = lowClassUniform
		return t
	}

	switch in.Op {
	case sass.OpFADD, sass.OpFADD32I:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrc32(&ops[1], ftz), lowerSrc32(&ops[2], ftz)
		if s1.uniform() && s2.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				a := math.Float32frombits(s1.fetch(ex.d))
				b := math.Float32frombits(s2.fetch(ex.d))
				broadcast32(w, dst, out32(fadd32(a, b), ftz), exec)
			})
		}
		// Shape-specialized fast paths: bare-register operands skip the
		// per-lane mask/flush branches of the generic accessor.
		if !ftz && s1.plain() {
			a := s1.reg
			if s2.plain() {
				b := s2.reg
				return func(ex *executor, w *Warp, exec uint32) {
					if exec == fullExec {
						for l := 0; l < WarpSize; l++ {
							r := w.regs[l]
							r[dst] = math.Float32bits(fadd32(math.Float32frombits(r[a]), math.Float32frombits(r[b])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[dst] = math.Float32bits(fadd32(math.Float32frombits(r[a]), math.Float32frombits(r[b])))
					}
				}
			}
			if s2.uniform() {
				return func(ex *executor, w *Warp, exec uint32) {
					fb := math.Float32frombits(s2.fetch(ex.d))
					if exec == fullExec {
						for l := 0; l < WarpSize; l++ {
							r := w.regs[l]
							r[dst] = math.Float32bits(fadd32(math.Float32frombits(r[a]), fb))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[dst] = math.Float32bits(fadd32(math.Float32frombits(r[a]), fb))
					}
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					w.regs[l][dst] = out32(fadd32(s1.f32(w, l, u1), s2.f32(w, l, u2)), ftz)
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][dst] = out32(fadd32(s1.f32(w, l, u1), s2.f32(w, l, u2)), ftz)
			}
		}

	case sass.OpFMUL, sass.OpFMUL32I:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrc32(&ops[1], ftz), lowerSrc32(&ops[2], ftz)
		if s1.uniform() && s2.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				a := math.Float32frombits(s1.fetch(ex.d))
				b := math.Float32frombits(s2.fetch(ex.d))
				broadcast32(w, dst, out32(fmul32(a, b), ftz), exec)
			})
		}
		// Shape-specialized fast paths: bare-register operands skip the
		// per-lane mask/flush branches of the generic accessor.
		if !ftz && s1.plain() {
			a := s1.reg
			if s2.plain() {
				b := s2.reg
				return func(ex *executor, w *Warp, exec uint32) {
					if exec == fullExec {
						for l := 0; l < WarpSize; l++ {
							r := w.regs[l]
							r[dst] = math.Float32bits(fmul32(math.Float32frombits(r[a]), math.Float32frombits(r[b])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[dst] = math.Float32bits(fmul32(math.Float32frombits(r[a]), math.Float32frombits(r[b])))
					}
				}
			}
			if s2.uniform() {
				return func(ex *executor, w *Warp, exec uint32) {
					fb := math.Float32frombits(s2.fetch(ex.d))
					if exec == fullExec {
						for l := 0; l < WarpSize; l++ {
							r := w.regs[l]
							r[dst] = math.Float32bits(fmul32(math.Float32frombits(r[a]), fb))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[dst] = math.Float32bits(fmul32(math.Float32frombits(r[a]), fb))
					}
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					w.regs[l][dst] = out32(fmul32(s1.f32(w, l, u1), s2.f32(w, l, u2)), ftz)
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][dst] = out32(fmul32(s1.f32(w, l, u1), s2.f32(w, l, u2)), ftz)
			}
		}

	case sass.OpFFMA, sass.OpFFMA32I:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2, s3 := lowerSrc32(&ops[1], ftz), lowerSrc32(&ops[2], ftz), lowerSrc32(&ops[3], ftz)
		if s1.uniform() && s2.uniform() && s3.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				a := math.Float32frombits(s1.fetch(ex.d))
				b := math.Float32frombits(s2.fetch(ex.d))
				c := math.Float32frombits(s3.fetch(ex.d))
				broadcast32(w, dst, out32(fma32(a, b, c), ftz), exec)
			})
		}
		// Shape-specialized fast paths, as for FADD/FMUL above.
		if !ftz && s1.plain() {
			a := s1.reg
			switch {
			case s2.plain() && s3.plain():
				b, c := s2.reg, s3.reg
				return func(ex *executor, w *Warp, exec uint32) {
					if exec == fullExec {
						for l := 0; l < WarpSize; l++ {
							r := w.regs[l]
							r[dst] = math.Float32bits(fma32(math.Float32frombits(r[a]), math.Float32frombits(r[b]), math.Float32frombits(r[c])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[dst] = math.Float32bits(fma32(math.Float32frombits(r[a]), math.Float32frombits(r[b]), math.Float32frombits(r[c])))
					}
				}
			case s2.plain() && s3.uniform():
				b := s2.reg
				return func(ex *executor, w *Warp, exec uint32) {
					fc := math.Float32frombits(s3.fetch(ex.d))
					if exec == fullExec {
						for l := 0; l < WarpSize; l++ {
							r := w.regs[l]
							r[dst] = math.Float32bits(fma32(math.Float32frombits(r[a]), math.Float32frombits(r[b]), fc))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[dst] = math.Float32bits(fma32(math.Float32frombits(r[a]), math.Float32frombits(r[b]), fc))
					}
				}
			case s2.uniform() && s3.plain():
				c := s3.reg
				return func(ex *executor, w *Warp, exec uint32) {
					fb := math.Float32frombits(s2.fetch(ex.d))
					if exec == fullExec {
						for l := 0; l < WarpSize; l++ {
							r := w.regs[l]
							r[dst] = math.Float32bits(fma32(math.Float32frombits(r[a]), fb, math.Float32frombits(r[c])))
						}
						return
					}
					for msk := exec; msk != 0; msk &= msk - 1 {
						r := w.regs[bits.TrailingZeros32(msk)]
						r[dst] = math.Float32bits(fma32(math.Float32frombits(r[a]), fb, math.Float32frombits(r[c])))
					}
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2, u3 := s1.fetch(ex.d), s2.fetch(ex.d), s3.fetch(ex.d)
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					w.regs[l][dst] = out32(fma32(s1.f32(w, l, u1), s2.f32(w, l, u2), s3.f32(w, l, u3)), ftz)
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][dst] = out32(fma32(s1.f32(w, l, u1), s2.f32(w, l, u2), s3.f32(w, l, u3)), ftz)
			}
		}

	case sass.OpMUFU:
		return lowerMUFU(in, pc, lk)

	case sass.OpDADD, sass.OpDMUL, sass.OpDFMA:
		return lowerArith64(in, pc, lk)

	case sass.OpFSEL:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		// FSEL reads raw bits (no FTZ), like the interpreter's srcBits32.
		s1, s2 := lowerSrc32(&ops[1], false), lowerSrc32(&ops[2], false)
		p := lowerSrcP(&ops[3])
		if s1.uniform() && s2.uniform() && p.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				v := s1.fetch(ex.d)
				if !p.konst {
					v = s2.fetch(ex.d)
				}
				broadcast32(w, dst, v, exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				if p.lane(w, l) {
					w.regs[l][dst] = s1.lane(w, l, u1)
				} else {
					w.regs[l][dst] = s2.lane(w, l, u2)
				}
			})
		}

	case sass.OpFSET:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrc32(&ops[1], ftz), lowerSrc32(&ops[2], ftz)
		cmp := fcmpFn(m.cmp[pc])
		trueBits := ^uint32(0)
		if wide { // .BF: boolean-float result
			trueBits = math.Float32bits(1)
		}
		if s1.uniform() && s2.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				a := math.Float32frombits(s1.fetch(ex.d))
				b := math.Float32frombits(s2.fetch(ex.d))
				v := uint32(0)
				if cmp(float64(a), float64(b)) {
					v = trueBits
				}
				broadcast32(w, dst, v, exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				v := uint32(0)
				if cmp(float64(s1.f32(w, l, u1)), float64(s2.f32(w, l, u2))) {
					v = trueBits
				}
				w.regs[l][dst] = v
			})
		}

	case sass.OpFSETP:
		s1, s2 := lowerSrc32(&ops[2], ftz), lowerSrc32(&ops[3], ftz)
		cmp := fcmpFn(m.cmp[pc])
		core := lowerSetpCore(in, m, pc)
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					core.apply(w, l, cmp(float64(s1.f32(w, l, u1)), float64(s2.f32(w, l, u2))))
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				core.apply(w, l, cmp(float64(s1.f32(w, l, u1)), float64(s2.f32(w, l, u2))))
			}
		}

	case sass.OpDSETP:
		s1, s2 := lowerSrc64(&ops[2]), lowerSrc64(&ops[3])
		cmp := fcmpFn(m.cmp[pc])
		core := lowerSetpCore(in, m, pc)
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				core.apply(w, l, cmp(s1.f64(w, l, u1), s2.f64(w, l, u2)))
			})
		}

	case sass.OpFMNMX:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrc32(&ops[1], ftz), lowerSrc32(&ops[2], ftz)
		p := lowerSrcP(&ops[3])
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				v := fmnmx32(s1.f32(w, l, u1), s2.f32(w, l, u2), p.lane(w, l))
				w.regs[l][dst] = out32(v, ftz)
			})
		}

	case sass.OpHADD2, sass.OpHMUL2, sass.OpHFMA2:
		return lowerArith16(in, pc, lk)

	case sass.OpFCHK:
		pd := ops[0].Pred
		if wide {
			s1, s2 := lowerSrc64(&ops[1]), lowerSrc64(&ops[2])
			return func(ex *executor, w *Warp, exec uint32) {
				u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
				eachLane(exec, func(l int) {
					w.SetPred(l, pd, fchkSpecial64(s1.f64(w, l, u1), s2.f64(w, l, u2)))
				})
			}
		}
		s1, s2 := lowerSrc32(&ops[1], false), lowerSrc32(&ops[2], false)
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				w.SetPred(l, pd, fchkSpecial(s1.f32(w, l, u1), s2.f32(w, l, u2)))
			})
		}

	case sass.OpF2F:
		return lowerF2F(in, pc, lk)

	case sass.OpI2F:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s := lowerSrcI(&ops[1])
		if wide {
			if s.uniform() {
				return uni(func(ex *executor, w *Warp, exec uint32) {
					broadcast64(w, dst, math.Float64bits(float64(int32(s.fetch(ex.d)))), exec)
				})
			}
			return func(ex *executor, w *Warp, exec uint32) {
				u := s.fetch(ex.d)
				eachLane(exec, func(l int) {
					lo, hi := fpval.Split64(math.Float64bits(float64(int32(s.lane(w, l, u)))))
					r := w.regs[l]
					r[dst], r[dst+1] = lo, hi
				})
			}
		}
		if s.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, math.Float32bits(float32(int32(s.fetch(ex.d)))), exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u := s.fetch(ex.d)
			eachLane(exec, func(l int) {
				w.regs[l][dst] = math.Float32bits(float32(int32(s.lane(w, l, u))))
			})
		}

	case sass.OpF2I:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		if wide {
			s := lowerSrc64(&ops[1])
			if s.uniform() {
				return uni(func(ex *executor, w *Warp, exec uint32) {
					broadcast32(w, dst, uint32(truncToI32(math.Float64frombits(s.fetch(ex.d)))), exec)
				})
			}
			return func(ex *executor, w *Warp, exec uint32) {
				u := s.fetch(ex.d)
				eachLane(exec, func(l int) {
					w.regs[l][dst] = uint32(truncToI32(s.f64(w, l, u)))
				})
			}
		}
		s := lowerSrc32(&ops[1], false)
		if s.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(truncToI32(float64(math.Float32frombits(s.fetch(ex.d))))), exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u := s.fetch(ex.d)
			eachLane(exec, func(l int) {
				w.regs[l][dst] = uint32(truncToI32(float64(s.f32(w, l, u))))
			})
		}

	case sass.OpMOV, sass.OpMOV32I:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s := lowerSrc32(&ops[1], false)
		if s.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, s.fetch(ex.d), exec)
			})
		}
		src := s.reg
		if s.neg == 0 && s.abs == 0 {
			// Plain register-to-register move.
			return func(ex *executor, w *Warp, exec uint32) {
				if exec == fullExec {
					for l := 0; l < WarpSize; l++ {
						w.regs[l][dst] = w.regs[l][src]
					}
					return
				}
				for msk := exec; msk != 0; msk &= msk - 1 {
					l := bits.TrailingZeros32(msk)
					w.regs[l][dst] = w.regs[l][src]
				}
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			eachLane(exec, func(l int) {
				w.regs[l][dst] = s.lane(w, l, 0)
			})
		}

	case sass.OpIADD:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrcI(&ops[1]), lowerSrcI(&ops[2])
		if s1.uniform() && s2.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, s1.fetch(ex.d)+s2.fetch(ex.d), exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					w.regs[l][dst] = s1.lane(w, l, u1) + s2.lane(w, l, u2)
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][dst] = s1.lane(w, l, u1) + s2.lane(w, l, u2)
			}
		}

	case sass.OpIADD3:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2, s3 := lowerSrcI(&ops[1]), lowerSrcI(&ops[2]), lowerSrcI(&ops[3])
		if s1.uniform() && s2.uniform() && s3.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, s1.fetch(ex.d)+s2.fetch(ex.d)+s3.fetch(ex.d), exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2, u3 := s1.fetch(ex.d), s2.fetch(ex.d), s3.fetch(ex.d)
			eachLane(exec, func(l int) {
				w.regs[l][dst] = s1.lane(w, l, u1) + s2.lane(w, l, u2) + s3.lane(w, l, u3)
			})
		}

	case sass.OpIMAD:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2, s3 := lowerSrcI(&ops[1]), lowerSrcI(&ops[2]), lowerSrcI(&ops[3])
		if s1.uniform() && s2.uniform() && s3.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, s1.fetch(ex.d)*s2.fetch(ex.d)+s3.fetch(ex.d), exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2, u3 := s1.fetch(ex.d), s2.fetch(ex.d), s3.fetch(ex.d)
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					w.regs[l][dst] = s1.lane(w, l, u1)*s2.lane(w, l, u2) + s3.lane(w, l, u3)
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				w.regs[l][dst] = s1.lane(w, l, u1)*s2.lane(w, l, u2) + s3.lane(w, l, u3)
			}
		}

	case sass.OpISETP:
		s1, s2 := lowerSrcI(&ops[2]), lowerSrcI(&ops[3])
		cmp := icmpFn(m.cmp[pc])
		core := lowerSetpCore(in, m, pc)
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					core.apply(w, l, cmp(int32(s1.lane(w, l, u1)), int32(s2.lane(w, l, u2))))
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				core.apply(w, l, cmp(int32(s1.lane(w, l, u1)), int32(s2.lane(w, l, u2))))
			}
		}

	case sass.OpSHL, sass.OpSHR:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrcI(&ops[1]), lowerSrcI(&ops[2])
		left := in.Op == sass.OpSHL
		shift := func(a, b uint32) uint32 {
			if left {
				return a << (b & 31)
			}
			return a >> (b & 31)
		}
		if s1.uniform() && s2.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, shift(s1.fetch(ex.d), s2.fetch(ex.d)), exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				w.regs[l][dst] = shift(s1.lane(w, l, u1), s2.lane(w, l, u2))
			})
		}

	case sass.OpLOP:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrcI(&ops[1]), lowerSrcI(&ops[2])
		lop := m.sub[pc]
		apply := func(a, b uint32) uint32 {
			switch lop {
			case subLopOr:
				return a | b
			case subLopXor:
				return a ^ b
			default:
				return a & b
			}
		}
		if s1.uniform() && s2.uniform() {
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, apply(s1.fetch(ex.d), s2.fetch(ex.d)), exec)
			})
		}
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				w.regs[l][dst] = apply(s1.lane(w, l, u1), s2.lane(w, l, u2))
			})
		}

	case sass.OpSEL:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		s1, s2 := lowerSrc32(&ops[1], false), lowerSrc32(&ops[2], false)
		p := lowerSrcP(&ops[3])
		return func(ex *executor, w *Warp, exec uint32) {
			u1, u2 := s1.fetch(ex.d), s2.fetch(ex.d)
			eachLane(exec, func(l int) {
				if p.lane(w, l) {
					w.regs[l][dst] = s1.lane(w, l, u1)
				} else {
					w.regs[l][dst] = s2.lane(w, l, u2)
				}
			})
		}

	case sass.OpLDG:
		dst := ops[0].Reg
		addr := lowerAddr(&ops[1])
		if wide {
			return func(ex *executor, w *Warp, exec uint32) {
				eachLane(exec, func(l int) {
					lo, hi := fpval.Split64(ex.d.Load64(addr.lane(w, l)))
					w.SetReg(l, dst, lo)
					w.SetReg(l, dst+1, hi)
				})
			}
		}
		keep := dst != sass.RZ
		return func(ex *executor, w *Warp, exec uint32) {
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					v := ex.d.Load32(addr.lane(w, l))
					if keep {
						w.regs[l][dst] = v
					}
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				v := ex.d.Load32(addr.lane(w, l))
				if keep {
					w.regs[l][dst] = v
				}
			}
		}

	case sass.OpSTG:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		if wide {
			return func(ex *executor, w *Warp, exec uint32) {
				eachLane(exec, func(l int) {
					v := fpval.Pair64(w.Reg(l, src), w.Reg(l, src+1))
					ex.d.Store64(addr.lane(w, l), v)
				})
			}
		}
		return func(ex *executor, w *Warp, exec uint32) {
			if exec == fullExec {
				for l := 0; l < WarpSize; l++ {
					ex.d.Store32(addr.lane(w, l), w.Reg(l, src))
				}
				return
			}
			for msk := exec; msk != 0; msk &= msk - 1 {
				l := bits.TrailingZeros32(msk)
				ex.d.Store32(addr.lane(w, l), w.Reg(l, src))
			}
		}

	case sass.OpRED:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		red := m.sub[pc]
		return func(ex *executor, w *Warp, exec uint32) {
			// Lanes run sequentially in ascending order, like the
			// interpreter, so the read-modify-write stays deterministic.
			eachLane(exec, func(l int) {
				a := addr.lane(w, l)
				old := ex.d.Load32(a)
				val := w.Reg(l, src)
				var res uint32
				switch red {
				case subRedFAdd:
					res = math.Float32bits(fadd32(math.Float32frombits(old), math.Float32frombits(val)))
				case subRedMax:
					res = math.Float32bits(fmnmx32(math.Float32frombits(old), math.Float32frombits(val), false))
				case subRedMin:
					res = math.Float32bits(fmnmx32(math.Float32frombits(old), math.Float32frombits(val), true))
				default: // subRedIAdd
					res = old + val
				}
				ex.d.Store32(a, res)
			})
		}

	case sass.OpLDS:
		dst := ops[0].Reg
		addr := lowerAddr(&ops[1])
		return func(ex *executor, w *Warp, exec uint32) {
			eachLane(exec, func(l int) {
				off := addr.lane(w, l)
				if int(off)+4 <= len(ex.shared) {
					w.SetReg(l, dst, leU32(ex.shared[off:]))
				}
			})
		}

	case sass.OpSTS:
		addr := lowerAddr(&ops[0])
		src := ops[1].Reg
		return func(ex *executor, w *Warp, exec uint32) {
			eachLane(exec, func(l int) {
				off := addr.lane(w, l)
				if int(off)+4 <= len(ex.shared) {
					putLeU32(ex.shared[off:], w.Reg(l, src))
				}
			})
		}

	case sass.OpLDC:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		bank, off := ops[1].Bank, ops[1].Off
		// Constant-bank reads are warp-invariant by construction.
		return uni(func(ex *executor, w *Warp, exec uint32) {
			broadcast32(w, dst, ex.d.CBankRead(bank, off), exec)
		})

	case sass.OpS2R:
		dst := ops[0].Reg
		if dst == sass.RZ {
			return nop()
		}
		switch ops[1].SR {
		case sass.SRTidX:
			return func(ex *executor, w *Warp, exec uint32) {
				base := uint32(w.WarpInBlock * WarpSize)
				eachLane(exec, func(l int) {
					w.regs[l][dst] = base + uint32(l)
				})
			}
		case sass.SRLaneID:
			return func(ex *executor, w *Warp, exec uint32) {
				eachLane(exec, func(l int) {
					w.regs[l][dst] = uint32(l)
				})
			}
		case sass.SRCtaidX:
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(w.Block), exec)
			})
		case sass.SRNtidX:
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(ex.l.BlockDim), exec)
			})
		case sass.SRNctaidX:
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, uint32(ex.l.GridDim), exec)
			})
		default:
			return uni(func(ex *executor, w *Warp, exec uint32) {
				broadcast32(w, dst, 0, exec)
			})
		}

	case sass.OpSHFL:
		return lowerSHFL(in)

	case sass.OpHMMA:
		return func(ex *executor, w *Warp, exec uint32) {
			ex.hmma(w, in, exec)
		}

	case sass.OpBRA, sass.OpEXIT, sass.OpNOP, sass.OpBAR:
		// Control flow is handled in executor.step, identically for both
		// executors.
		lk.class[pc] = lowClassControl
		return nopThunk

	default:
		op := in.Op
		return func(ex *executor, w *Warp, exec uint32) {
			panic(fmt.Sprintf("device: unimplemented opcode %v", op))
		}
	}
}

// MUFU special-function modes, resolved from Mods[0] at lower time.
const (
	mufuRCP = iota
	mufuRSQ
	mufuSQRT
	mufuSIN
	mufuCOS
	mufuEX2
	mufuLG2
	mufuPass
)

func mufuMode(in *sass.Instr) int {
	mod := ""
	if len(in.Mods) > 0 {
		mod = in.Mods[0]
	}
	switch mod {
	case "RCP":
		return mufuRCP
	case "RSQ":
		return mufuRSQ
	case "SQRT":
		return mufuSQRT
	case "SIN":
		return mufuSIN
	case "COS":
		return mufuCOS
	case "EX2":
		return mufuEX2
	case "LG2":
		return mufuLG2
	default:
		return mufuPass
	}
}

func mufuEval(mode int, x float64) float64 {
	switch mode {
	case mufuRCP:
		return 1 / x
	case mufuRSQ:
		return 1 / math.Sqrt(x)
	case mufuSQRT:
		return math.Sqrt(x)
	case mufuSIN:
		return math.Sin(x)
	case mufuCOS:
		return math.Cos(x)
	case mufuEX2:
		return math.Exp2(x)
	case mufuLG2:
		return math.Log2(x)
	default:
		return x
	}
}

func lowerMUFU(in *sass.Instr, pc int, lk *loweredKernel) thunk {
	dst := in.Operands[0].Reg
	if dst == sass.RZ {
		lk.nops++
		lk.class[pc] = lowClassNop
		return nopThunk
	}
	s := lowerSrc32(&in.Operands[1], false)
	if in.Is64H() {
		// MUFU.RCP64H: approximate 1/x of an FP64 from its high word.
		return func(ex *executor, w *Warp, exec uint32) {
			u := s.fetch(ex.d)
			eachLane(exec, func(l int) {
				hi := s.lane(w, l, u)
				x := math.Float64frombits(uint64(hi) << 32)
				_, rhi := fpval.Split64(math.Float64bits(1 / x))
				w.regs[l][dst] = rhi
			})
		}
	}
	mode := mufuMode(in)
	if s.uniform() {
		lk.uniform++
		lk.class[pc] = lowClassUniform
		return func(ex *executor, w *Warp, exec uint32) {
			x := float64(math.Float32frombits(s.fetch(ex.d)))
			r := fpval.FlushFloat32(float32(mufuEval(mode, x)))
			broadcast32(w, dst, math.Float32bits(r), exec)
		}
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u := s.fetch(ex.d)
		if exec == fullExec {
			for l := 0; l < WarpSize; l++ {
				r := fpval.FlushFloat32(float32(mufuEval(mode, float64(s.f32(w, l, u)))))
				w.regs[l][dst] = math.Float32bits(r)
			}
			return
		}
		for msk := exec; msk != 0; msk &= msk - 1 {
			l := bits.TrailingZeros32(msk)
			r := fpval.FlushFloat32(float32(mufuEval(mode, float64(s.f32(w, l, u)))))
			w.regs[l][dst] = math.Float32bits(r)
		}
	}
}

// FP64 arithmetic kinds.
const (
	d64Add = iota
	d64Mul
	d64Fma
)

func lowerArith64(in *sass.Instr, pc int, lk *loweredKernel) thunk {
	ops := in.Operands
	dst := ops[0].Reg
	if dst == sass.RZ {
		lk.nops++
		lk.class[pc] = lowClassNop
		return nopThunk
	}
	kind := d64Add
	switch in.Op {
	case sass.OpDMUL:
		kind = d64Mul
	case sass.OpDFMA:
		kind = d64Fma
	}
	s1, s2 := lowerSrc64(&ops[1]), lowerSrc64(&ops[2])
	var s3 src64
	if kind == d64Fma {
		s3 = lowerSrc64(&ops[3])
	}
	eval := func(a, b, c float64) float64 {
		switch kind {
		case d64Mul:
			return firstNaN64(a*b, a)
		case d64Fma:
			return math.FMA(a, b, c)
		default:
			return firstNaN64(a+b, a)
		}
	}
	if s1.uniform() && s2.uniform() && (kind != d64Fma || s3.uniform()) {
		lk.uniform++
		lk.class[pc] = lowClassUniform
		return func(ex *executor, w *Warp, exec uint32) {
			a := math.Float64frombits(s1.fetch(ex.d))
			b := math.Float64frombits(s2.fetch(ex.d))
			c := math.Float64frombits(s3.fetch(ex.d))
			broadcast64(w, dst, math.Float64bits(eval(a, b, c)), exec)
		}
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u1, u2, u3 := s1.fetch(ex.d), s2.fetch(ex.d), s3.fetch(ex.d)
		if exec == fullExec {
			for l := 0; l < WarpSize; l++ {
				v := eval(s1.f64(w, l, u1), s2.f64(w, l, u2), s3.f64(w, l, u3))
				lo, hi := fpval.Split64(math.Float64bits(v))
				r := w.regs[l]
				r[dst], r[dst+1] = lo, hi
			}
			return
		}
		for msk := exec; msk != 0; msk &= msk - 1 {
			l := bits.TrailingZeros32(msk)
			v := eval(s1.f64(w, l, u1), s2.f64(w, l, u2), s3.f64(w, l, u3))
			lo, hi := fpval.Split64(math.Float64bits(v))
			r := w.regs[l]
			r[dst], r[dst+1] = lo, hi
		}
	}
}

// FP16 arithmetic kinds.
const (
	h16Add = iota
	h16Mul
	h16Fma
)

func lowerArith16(in *sass.Instr, pc int, lk *loweredKernel) thunk {
	ops := in.Operands
	dst := ops[0].Reg
	if dst == sass.RZ {
		lk.nops++
		lk.class[pc] = lowClassNop
		return nopThunk
	}
	kind := h16Add
	switch in.Op {
	case sass.OpHMUL2:
		kind = h16Mul
	case sass.OpHFMA2:
		kind = h16Fma
	}
	s1, s2 := lowerSrc16(&ops[1]), lowerSrc16(&ops[2])
	var s3 src16
	if kind == h16Fma {
		s3 = lowerSrc16(&ops[3])
	}
	eval := func(a, b, c float32) float32 {
		switch kind {
		case h16Mul:
			return firstNaN32(a*b, a)
		case h16Fma:
			return fma32(a, b, c)
		default:
			return fadd32(a, b)
		}
	}
	if s1.uniform() && s2.uniform() && (kind != h16Fma || s3.uniform()) {
		lk.uniform++
		lk.class[pc] = lowClassUniform
		return func(ex *executor, w *Warp, exec uint32) {
			a := fpval.F16ToFloat32(s1.fetch(ex.d))
			b := fpval.F16ToFloat32(s2.fetch(ex.d))
			c := fpval.F16ToFloat32(s3.fetch(ex.d))
			broadcast32(w, dst, uint32(fpval.F16FromFloat32(eval(a, b, c))), exec)
		}
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u1, u2, u3 := s1.fetch(ex.d), s2.fetch(ex.d), s3.fetch(ex.d)
		eachLane(exec, func(l int) {
			v := eval(s1.f32(w, l, u1), s2.f32(w, l, u2), s3.f32(w, l, u3))
			w.regs[l][dst] = uint32(fpval.F16FromFloat32(v))
		})
	}
}

// F2F conversion formats.
const (
	cvtF32 = iota
	cvtF64
	cvtF16
)

func cvtFormat(mod string) int {
	switch mod {
	case "F64":
		return cvtF64
	case "F16":
		return cvtF16
	default:
		return cvtF32
	}
}

func lowerF2F(in *sass.Instr, pc int, lk *loweredKernel) thunk {
	ops := in.Operands
	dst := ops[0].Reg
	if dst == sass.RZ {
		lk.nops++
		lk.class[pc] = lowClassNop
		return nopThunk
	}
	dstFmt, srcFmt := cvtF32, cvtF32
	if len(in.Mods) >= 2 {
		dstFmt, srcFmt = cvtFormat(in.Mods[0]), cvtFormat(in.Mods[1])
	}
	outFtz := in.HasMod("FTZ")

	var s64 src64
	var s32 src32
	if srcFmt == cvtF64 {
		s64 = lowerSrc64(&ops[1])
	} else {
		// F16 sources mirror the interpreter: sign modifiers act on the
		// 32-bit pattern before truncation to 16 bits.
		s32 = lowerSrc32(&ops[1], false)
	}
	read := func(ex *executor, w *Warp, l int, u64 uint64, u32 uint32) float64 {
		switch srcFmt {
		case cvtF64:
			return s64.f64(w, l, u64)
		case cvtF16:
			return float64(fpval.F16ToFloat32(uint16(s32.lane(w, l, u32))))
		default:
			return float64(s32.f32(w, l, u32))
		}
	}
	write := func(w *Warp, l int, v float64) {
		switch dstFmt {
		case cvtF64:
			lo, hi := fpval.Split64(math.Float64bits(v))
			r := w.regs[l]
			r[dst], r[dst+1] = lo, hi
		case cvtF16:
			w.regs[l][dst] = uint32(fpval.F16FromFloat32(float32(v)))
		default:
			w.regs[l][dst] = out32(float32(v), outFtz)
		}
	}
	uniform := srcFmt == cvtF64 && s64.uniform() || srcFmt != cvtF64 && s32.uniform()
	if uniform {
		lk.uniform++
		lk.class[pc] = lowClassUniform
	}
	return func(ex *executor, w *Warp, exec uint32) {
		u64, u32 := s64.fetch(ex.d), s32.fetch(ex.d)
		if uniform {
			v := read(ex, w, 0, u64, u32)
			eachLane(exec, func(l int) { write(w, l, v) })
			return
		}
		eachLane(exec, func(l int) {
			write(w, l, read(ex, w, l, u64, u32))
		})
	}
}

// SHFL modes.
const (
	shflSelf = iota
	shflBFLY
	shflDOWN
	shflUP
	shflIDX
)

func lowerSHFL(in *sass.Instr) thunk {
	dst := in.Operands[0].Reg
	srcReg := in.Operands[1].Reg
	offSrc := lowerSrcI(&in.Operands[2])
	mode := shflSelf
	switch {
	case in.HasMod("BFLY"):
		mode = shflBFLY
	case in.HasMod("DOWN"):
		mode = shflDOWN
	case in.HasMod("UP"):
		mode = shflUP
	case in.HasMod("IDX"):
		mode = shflIDX
	}
	return func(ex *executor, w *Warp, exec uint32) {
		var snapshot [WarpSize]uint32
		if srcReg != sass.RZ {
			for l := 0; l < WarpSize; l++ {
				snapshot[l] = w.regs[l][srcReg]
			}
		}
		u := offSrc.fetch(ex.d)
		eachLane(exec, func(l int) {
			off := int(offSrc.lane(w, l, u))
			src := l
			switch mode {
			case shflBFLY:
				src = l ^ off
			case shflDOWN:
				src = l + off
			case shflUP:
				src = l - off
			case shflIDX:
				src = off
			}
			v := snapshot[l]
			if src >= 0 && src < WarpSize {
				v = snapshot[src]
			}
			w.SetReg(l, dst, v)
		})
	}
}
