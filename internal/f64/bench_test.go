package f64

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the kernel layer, at the sizes the nn hot
// paths actually use: LSTM gate rows (In/H up to 64), CNN windows
// (Width·In up to 160), and the sequence-level input GEMM. The CI
// bench-smoke step runs these alongside the model-level benchmarks.

var benchSink float64

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 64, 160, 256} {
		x, y := randVec(rng, n), randVec(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Dot(x, y)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{16, 64, 256} {
		x, y := randVec(rng, n), randVec(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, y)
			}
		})
	}
}

func BenchmarkGemvN(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{64, 64}, {256, 64}} {
		m, n := dims[0], dims[1]
		a, x := randVec(rng, m*n), randVec(rng, n)
		dst := make([]float64, m)
		b.Run(fmt.Sprintf("m=%d/n=%d", m, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GemvN(dst, a, x)
			}
		})
	}
}

func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	// The LSTM sequence-level input transform shape: n steps by 4H
	// gates times In inputs.
	for _, dims := range [][3]int{{40, 256, 64}, {40, 64, 256}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, bm := randVec(rng, m*k), randVec(rng, k*n)
		c := make([]float64, m*n)
		b.Run(fmt.Sprintf("m=%d/n=%d/k=%d", m, n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Gemm(c, a, bm, m, n, k)
			}
		})
	}
}

// gemmFunc has GemmSW's signature; the served-shape benchmarks run the
// dispatched kernel and the pure-Go reference side by side.
type gemmFunc func(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, w, k int)

// BenchmarkGemmServed times GemmSW at the shapes the served models
// run, in GFLOP/s: the SmallScale clstm gate GEMMs (48 gate rows over
// 16 lanes, k = embedding 8 and hidden 12), its 52-step sequence input
// GEMM, and the ccnn conv GEMM (50 positions × 8 kernels, k = 24 read
// through overlapping im2col rows of stride 8). Each shape has a
// "generic" sub-benchmark on the pure-Go kernel, so one run prints the
// ratio.
func BenchmarkGemmServed(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range []struct {
		name         string
		m, w, k, lda int
	}{
		{"clstm-gates-k8", 48, 16, 8, 8},
		{"clstm-gates-k12", 48, 16, 12, 12},
		{"clstm-seq", 52, 48, 8, 8},
		{"ccnn-conv", 50, 8, 24, 8},
	} {
		a := randVec(rng, (s.m-1)*s.lda+s.k)
		bm := randVec(rng, s.k*s.w)
		c := make([]float64, s.m*s.w)
		for _, impl := range []struct {
			name string
			f    gemmFunc
		}{{"dispatch", GemmSW}, {"generic", gemmSWGo}} {
			b.Run(s.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.f(c, s.w, a, s.lda, bm, s.w, s.m, s.w, s.k)
				}
				b.ReportMetric(2*float64(s.m*s.w*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkGateActivations times TanhV and SigmoidV, dispatched and
// pure Go, over one clstm gate block (48 gate rows × 16 lanes) of
// typical pre-activations, in ns per element.
func BenchmarkGateActivations(b *testing.B) {
	x := benchArgs(48 * 16)
	dst := make([]float64, len(x))
	for _, fn := range []struct {
		name string
		f    func(dst, x []float64)
	}{
		{"TanhV/dispatch", TanhV}, {"TanhV/generic", tanhVGo},
		{"SigmoidV/dispatch", SigmoidV}, {"SigmoidV/generic", sigmoidVGo},
	} {
		b.Run(fn.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn.f(dst, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
		})
	}
}
