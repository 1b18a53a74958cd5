package main

// Host-speed calibration. The benchmark gets a few cores of a shared host,
// and the speed those cores give drifts by up to 2× within minutes, mostly
// through the shared last-level cache and memory bandwidth: a pure
// arithmetic loop moves a few percent while the workloads move 30–50%.
// Medians over a run do not remove a drift that lasts longer than the run.
//
// So every wall-clock end-to-end metric is normalised: the benchmark times
// a fixed calibration kernel alongside the work and reports
//
//	normalised time = raw time × reference time / kernel time
//
// — the time on a host where the kernel takes its reference time. The
// kernel is the benchmark's own code, independent of the program under
// test, so a change to the program moves a normalised metric as it moves
// the raw one. The raw values and the kernel time are printed as
// informational rows.
//
// The kernel is an 8 MiB copy (bandwidth of the shared cache), followed on
// corpus by a small register-file interpreter that allocates its state per
// repetition (dispatch, short-lived heap objects), as the simulator does.
// On the 2-core host, over 30-second windows of a 7-minute corpus run whose
// raw pass rate drifted 35% (quartile distance over median), normalising by
// copy and interpreter left 3.3% (rate), 5.2% (p50) and 5.5% (p99); the
// copy alone left 9–16%. Serve latency follows the copy but not the
// interpreter: over 20 serve runs, normalising by the copy alone left p50
// 7.5% and p99 11.6%, by copy and interpreter 18% and 13%.

import (
	"math"
	"sync"
	"time"
)

// kernel is one calibration kernel: how many interpreter repetitions
// follow the copy, and the reference time normalised metrics assume.
type kernel struct {
	vmReps int
	refMS  float64
}

var (
	corpusKernel = kernel{vmReps: 40, refMS: 2.5}
	serveKernel  = kernel{vmReps: 0, refMS: 1}
)

const (
	// calibCopyBytes is the size of the kernel's copy.
	calibCopyBytes = 8 << 20
	// calibEvery is how many operations a closed-loop worker runs between
	// calibration samples.
	calibEvery = 16
)

// vmInstr is one instruction of the calibration interpreter.
type vmInstr struct{ op, a, b, c uint8 }

// vmProgram is the calibration interpreter's fixed program: 64
// instructions over 16 registers of 32 lanes.
var vmProgram = func() []vmInstr {
	p := make([]vmInstr, 64)
	for i := range p {
		p[i] = vmInstr{uint8(i % 6), uint8(i % 16), uint8(i * 3 % 16), uint8(i * 5 % 16)}
	}
	return p
}()

// run runs the kernel once against a pair of copy buffers and returns a
// value that depends on all of its work.
func (k kernel) run(buf *[2][]byte) float64 {
	copy(buf[1], buf[0])
	var sum float64
	for range k.vmReps {
		regs := make([]float32, 16*32)
		mem := make([]uint32, 4096)
		seen := map[uint32]int{}
		for range 4 {
			for _, in := range vmProgram {
				for l := range 32 {
					a, b, c := int(in.a)*32+l, int(in.b)*32+l, int(in.c)*32+l
					switch in.op {
					case 0:
						regs[a] = regs[b] + regs[c] + 1
					case 1:
						regs[a] = regs[b] * 1.5
					case 2:
						mem[(l*97+int(in.b)*31)&4095] = math.Float32bits(regs[b])
					case 3:
						regs[a] = math.Float32frombits(mem[(l*89+int(in.c)*7)&4095])
					case 4:
						if regs[b] != regs[b] {
							seen[uint32(l)]++
						}
					default:
						regs[a] = regs[c] - regs[b]
					}
				}
			}
		}
		sum += float64(regs[5]) + float64(len(seen))
	}
	return sum + float64(buf[1][len(buf[1])-1])
}

// meter times the calibration kernel. Samples collect in a window that
// take closes. bufs holds one pair of copy buffers per concurrent sampler,
// so samplers never share one.
type meter struct {
	kernel kernel
	bufs   chan *[2][]byte

	mu     sync.Mutex
	window []float64 // ms
	all    []float64 // every closed window's median
	sink   float64
}

// newMeter returns a meter of k for up to slots concurrent samplers.
func newMeter(k kernel, slots int) *meter {
	m := &meter{kernel: k, bufs: make(chan *[2][]byte, slots)}
	for range slots {
		m.bufs <- &[2][]byte{make([]byte, calibCopyBytes), make([]byte, calibCopyBytes)}
	}
	return m
}

// sample runs the kernel once, records its time and returns it.
func (m *meter) sample() time.Duration {
	buf := <-m.bufs
	t0 := time.Now()
	v := m.kernel.run(buf)
	d := time.Since(t0)
	m.bufs <- buf
	m.mu.Lock()
	m.window = append(m.window, ms(d))
	m.sink += v
	m.mu.Unlock()
	return d
}

// reset drops the current window's samples.
func (m *meter) reset() {
	m.mu.Lock()
	m.window = nil
	m.mu.Unlock()
}

// take closes the current window and returns the factor that turns a raw
// time measured in it into a normalised one. A window without samples gets
// a few now, so there is always a calibration to scale by.
func (m *meter) take() float64 {
	m.mu.Lock()
	empty := len(m.window) == 0
	m.mu.Unlock()
	if empty {
		for range 3 {
			m.sample()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	med := median(m.window)
	m.window = nil
	m.all = append(m.all, med)
	return m.kernel.refMS / med
}

// medianMS is the median over the closed windows' calibration times.
func (m *meter) medianMS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return median(m.all)
}
