package f64

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file hold the dispatched kernels (GemmSW, GemmS,
// Gemm, TanhV, SigmoidV) to their pure-Go references bit for bit. On a
// CPU without AVX2 both sides run the same Go code; the tests then log
// that and pass.

func logKernel(t testing.TB) {
	if !useAVX2 {
		t.Log("no AVX2 on this CPU: the pure-Go kernels are compared with themselves")
	}
}

// sameBits reports whether x and y are the same float64. Any two NaNs
// match: when both operands of an addition are NaN, which payload the
// result carries depends on operand order, which neither the Go
// compiler nor the Go spec fixes.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// specials are the IEEE-754 edge values the differential tests mix in.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, math.MaxFloat64, -math.MaxFloat64,
}

// gemmCase is one GemmSW problem with strided operands.
type gemmCase struct {
	m, w, k, ldc, lda, ldb int
	c, a, b                []float64
}

// newGemmCase draws operands for the given shape. C and B get ldc−w and
// ldb−w spare columns; A rows overlap when lda < k, the im2col layout.
// A quarter of the A tail terms are zero, to take the zero-skip branch,
// and specialRate of all operands are IEEE specials.
func newGemmCase(rng *rand.Rand, m, w, k, ldc, lda, ldb int, specialRate float64) gemmCase {
	g := gemmCase{m: m, w: w, k: k, ldc: ldc, lda: lda, ldb: ldb}
	fill := func(n int) []float64 {
		v := randVec(rng, n)
		for i := range v {
			if rng.Float64() < specialRate {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
		return v
	}
	g.c = fill(max(0, (m-1)*ldc+ldc))
	g.a = fill(max(0, (m-1)*lda+k))
	g.b = fill(max(0, (k-1)*ldb+ldb))
	for i := 0; i < m; i++ {
		for l := k &^ 3; l < k; l++ {
			if rng.Intn(4) == 0 {
				g.a[i*lda+l] = 0
			}
		}
	}
	return g
}

// check runs the dispatched GemmSW and gemmSWGo on copies of C and
// compares every element of the buffer, including the spare columns.
func (g gemmCase) check(t testing.TB) {
	t.Helper()
	got := append([]float64(nil), g.c...)
	want := append([]float64(nil), g.c...)
	GemmSW(got, g.ldc, g.a, g.lda, g.b, g.ldb, g.m, g.w, g.k)
	gemmSWGo(want, g.ldc, g.a, g.lda, g.b, g.ldb, g.m, g.w, g.k)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("m=%d w=%d k=%d ldc=%d lda=%d ldb=%d: c[%d] = %v (%#x), Go kernel %v (%#x)",
				g.m, g.w, g.k, g.ldc, g.lda, g.ldb, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestGemmSWMatchesGo(t *testing.T) {
	logKernel(t)
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 3000; iter++ {
		m, w, k := 1+rng.Intn(9), rng.Intn(38), rng.Intn(22)
		lda := k + rng.Intn(4)
		if k > 1 && rng.Intn(4) == 0 {
			lda = 1 + rng.Intn(k-1) // overlapping rows, as in the conv im2col
		}
		rate := 0.0
		if iter%3 == 0 {
			rate = 0.05
		}
		newGemmCase(rng, m, w, k, w+rng.Intn(4), lda, w+rng.Intn(4), rate).check(t)
	}
	// The served shapes, exactly.
	for _, s := range [][3]int{{48, 16, 8}, {48, 16, 12}, {52, 48, 8}, {50, 8, 24}, {48, 5, 12}} {
		m, w, k := s[0], s[1], s[2]
		newGemmCase(rng, m, w, k, w, k, w, 0).check(t)
	}
}

func TestGemmAndGemmSMatchGo(t *testing.T) {
	logKernel(t)
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 500; iter++ {
		m, n, k := 1+rng.Intn(9), rng.Intn(38), rng.Intn(22)
		lda := k + rng.Intn(3)
		g := newGemmCase(rng, m, n, k, n, lda, n, 0.02)
		want := append([]float64(nil), g.c...)
		gemmSWGo(want, n, g.a, lda, g.b, n, m, n, k)
		gotS := append([]float64(nil), g.c...)
		GemmS(gotS, g.a, lda, g.b, m, n, k)
		gotG := append([]float64(nil), g.c...)
		Gemm(gotG, g.a[:m*k], g.b, m, n, k)
		wantG := append([]float64(nil), g.c...)
		gemmSWGo(wantG, n, g.a[:m*k], k, g.b, n, m, n, k)
		for i := range want {
			if !sameBits(gotS[i], want[i]) {
				t.Fatalf("m=%d n=%d k=%d lda=%d: GemmS c[%d] = %v, Go kernel %v", m, n, k, lda, i, gotS[i], want[i])
			}
			if !sameBits(gotG[i], wantG[i]) {
				t.Fatalf("m=%d n=%d k=%d: Gemm c[%d] = %v, Go kernel %v", m, n, k, i, gotG[i], wantG[i])
			}
		}
	}
}

// diffArgs is testArgs with IEEE specials spliced in every 37
// elements, so fringe lanes land at every block position.
func diffArgs() []float64 {
	xs := testArgs()
	for i, j := 0, 0; i < len(xs); i, j = i+37, j+1 {
		xs[i] = specials[j%len(specials)]
	}
	return xs
}

func TestVecmathMatchesScalar(t *testing.T) {
	logKernel(t)
	xs := diffArgs()
	dst := make([]float64, len(xs))
	for _, fn := range []struct {
		name   string
		vec    func(dst, x []float64)
		scalar func(float64) float64
	}{
		{"TanhV", TanhV, tanh1}, {"tanhVGo", tanhVGo, tanh1},
		{"SigmoidV", SigmoidV, sigmoid1}, {"sigmoidVGo", sigmoidVGo, sigmoid1},
	} {
		// Every start offset 0–3 and call length 0–11: assembly blocks,
		// blocks left to Go and n%4 tails interleave.
		for off := 0; off < 4; off++ {
			for n := 0; n < 12; n++ {
				for i := range dst {
					dst[i] = -7 // stale
				}
				fn.vec(dst[off:off], xs[off:off])
				end := off
				for ; n > 0 && end+n <= len(xs); end += n {
					fn.vec(dst[end:end+n], xs[end:end+n])
				}
				for i := off; i < end; i++ {
					if want := fn.scalar(xs[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("%s off=%d n=%d: element %d (x=%v) = %v, scalar %v", fn.name, off, n, i, xs[i], dst[i], want)
					}
				}
			}
		}
	}
}

// TestKernelsShortOperandPanics passes each operand one element short,
// with a guard element just past it: the kernel must panic, as the Go
// kernels do, and must not write the guard.
func TestKernelsShortOperandPanics(t *testing.T) {
	logKernel(t)
	const guard = 12345.0
	// short returns v's first len(v)−1 elements in a buffer whose next
	// element is the guard; cap is cut there so the Go kernels, which
	// slice by capacity, panic too.
	short := func(v []float64) ([]float64, []float64) {
		buf := append([]float64(nil), v...)
		buf[len(v)-1] = guard
		return buf[: len(v)-1 : len(v)-1], buf
	}
	mustPanic := func(name string, buf []float64, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
			if g := buf[len(buf)-1]; g != guard {
				t.Errorf("%s: guard element overwritten: %v", name, g)
			}
		}()
		fn()
	}
	rng := rand.New(rand.NewSource(23))
	for _, s := range [][3]int{{3, 8, 4}, {5, 16, 12}, {2, 7, 6}} {
		m, w, k := s[0], s[1], s[2]
		ldc, lda, ldb := w+1, k, w
		c, a, b := randVec(rng, (m-1)*ldc+w), randVec(rng, (m-1)*lda+k), randVec(rng, (k-1)*ldb+w)
		for i := range a {
			a[i] += 2 // no zero-skips: every B row is read
		}
		name := fmt.Sprintf("GemmSW m=%d w=%d k=%d", m, w, k)
		cs, cbuf := short(c)
		mustPanic(name+" short c", cbuf, func() { GemmSW(cs, ldc, a, lda, b, ldb, m, w, k) })
		as, abuf := short(a)
		mustPanic(name+" short a", abuf, func() { GemmSW(c, ldc, as, lda, b, ldb, m, w, k) })
		bs, bbuf := short(b)
		mustPanic(name+" short b", bbuf, func() { GemmSW(c, ldc, a, lda, bs, ldb, m, w, k) })
	}
	x := benchArgs(9)
	for _, fn := range []struct {
		name string
		f    func(dst, x []float64)
	}{{"TanhV", TanhV}, {"SigmoidV", SigmoidV}} {
		ds, dbuf := short(make([]float64, len(x)))
		mustPanic(fn.name+" short dst", dbuf, func() { fn.f(ds, x) })
	}
}

// FuzzKernels decodes a GemmSW shape and operands, and a TanhV/SigmoidV
// input, from the fuzz bytes and requires the dispatched kernels to
// match the Go kernels bit for bit.
func FuzzKernels(f *testing.F) {
	seed := make([]byte, 6, 6+8*64)
	copy(seed, []byte{4, 16, 12, 1, 0, 2})
	for i := 0; i < 64; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(float64(i%9)-4.25))
	}
	f.Add(seed)
	f.Add([]byte{1, 5, 7, 0, 3, 1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		m, w, k := 1+int(data[0]%12), int(data[1]%40), int(data[2]%24)
		ldc, ldb := w+int(data[3]%4), w+int(data[5]%4)
		lda := k + int(data[4]%4)
		if data[4]&0x80 != 0 && k > 1 {
			lda = 1 + int(data[4])%(k-1)
		}
		vals := data[6:]
		next := 0
		// float returns the next 8 input bytes as a float64, cycling, or
		// a deterministic filler once the input runs out.
		float := func() float64 {
			if len(vals) < 8 {
				next++
				return float64(next%13) - 6.5
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals[next%(len(vals)/8)*8:]))
			next++
			return v
		}
		fill := func(n int) []float64 {
			v := make([]float64, max(n, 0))
			for i := range v {
				v[i] = float()
			}
			return v
		}
		g := gemmCase{m: m, w: w, k: k, ldc: ldc, lda: lda, ldb: ldb,
			c: fill((m-1)*ldc + ldc), a: fill((m-1)*lda + k), b: fill((k-1)*ldb + ldb)}
		g.check(t)

		x := fill(len(vals) / 8)
		got, want := make([]float64, len(x)), make([]float64, len(x))
		TanhV(got, x)
		tanhVGo(want, x)
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("TanhV(%v) = %v, Go kernel %v", x[i], got[i], want[i])
			}
		}
		SigmoidV(got, x)
		sigmoidVGo(want, x)
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("SigmoidV(%v) = %v, Go kernel %v", x[i], got[i], want[i])
			}
		}
	})
}
