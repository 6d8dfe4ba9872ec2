package f64

import (
	"math"
	"math/bits"
)

// useAVX2 selects the assembly kernels in kernels_amd64.s. It is set
// once, at package initialisation, from CPUID and XGETBV; the GOAMD64
// level the binary was built for plays no part.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and the AVX state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gemmSWAVX2 runs GemmSW's 4-term blocks on C[:m, :w] for the first k
// terms; w and k are positive multiples of 4 and ldc ≥ w. Each C
// element is held in a register across all k/4 blocks, which performs
// the same additions in the same order as gemmSWGo's store-per-block
// loop.
//
//go:noescape
func gemmSWAVX2(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, w, k int)

// tanhAVX2 writes TanhV's 4-lane blocks of x to dst from the start and
// stops before the first block holding a lane that stays in Go (NaN,
// |x| > tanhSatCut, or |x| < 0.625 with x·x == 0). It returns the
// number of elements written, a multiple of 4. len(dst) ≥ len(x).
//
//go:noescape
func tanhAVX2(dst, x []float64) int

// sigmoidAVX2 is tanhAVX2 for SigmoidV; the lanes that stay in Go are
// NaN and |x| > expFastCut.
//
//go:noescape
func sigmoidAVX2(dst, x []float64) int

// lastIndex returns (rows-1)·ld + cols − 1, the last element a rows×cols
// block with row stride ld reaches, or −1 if that overflows int, so that
// indexing a slice with the result panics on any short operand. rows,
// cols ≥ 1 and ld ≥ 0.
func lastIndex(rows, ld, cols int) int {
	hi, lo := bits.Mul64(uint64(rows-1), uint64(ld))
	if hi != 0 || lo > math.MaxInt {
		return -1
	}
	return int(lo) + cols - 1 // a wrapped sum is negative and panics too
}

func gemmSW(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, w, k int) {
	w4, k4 := w&^3, k&^3
	// ldc < w (overlapping C rows) would make one row's sums read
	// another's; only gemmSWGo's order defines that case.
	if !useAVX2 || m <= 0 || w4 <= 0 || k4 <= 0 || ldc < w {
		gemmSWGo(c, ldc, a, lda, b, ldb, m, w, k)
		return
	}
	// The assembly does no bounds checks: touch the last element it
	// reads or writes in each operand first.
	_ = c[lastIndex(m, ldc, w4)]
	_ = a[lastIndex(m, lda, k4)]
	_ = b[lastIndex(k4, ldb, w4)]
	gemmSWAVX2(c, ldc, a, lda, b, ldb, m, w4, k4)
	if w4 < w {
		// The w%4 columns get the same 4-term blocks, in Go.
		gemmSWGo(c[w4:], ldc, a, lda, b[w4:], ldb, m, w-w4, k4)
	}
	// The k%4 tail terms follow all blocks, as in gemmSWGo.
	for i := 0; i < m && k4 < k; i++ {
		ci := c[i*ldc : i*ldc+w]
		for l := k4; l < k; l++ {
			if al := a[i*lda+l]; al != 0 {
				Axpy(al, b[l*ldb:l*ldb+w], ci)
			}
		}
	}
}

func tanhV(dst, x []float64) {
	if !useAVX2 {
		tanhVGo(dst, x)
		return
	}
	n := len(x)
	if n == 0 {
		return
	}
	_ = dst[n-1] // the assembly writes dst[:n] unchecked
	for i := 0; i < n; {
		i += tanhAVX2(dst[i:n], x[i:n])
		// i is at a block the assembly left to Go, or at the n%4 tail.
		for e := min(i+4, n); i < e; i++ {
			dst[i] = tanh1(x[i])
		}
	}
}

func sigmoidV(dst, x []float64) {
	if !useAVX2 {
		sigmoidVGo(dst, x)
		return
	}
	n := len(x)
	if n == 0 {
		return
	}
	_ = dst[n-1] // the assembly writes dst[:n] unchecked
	for i := 0; i < n; {
		i += sigmoidAVX2(dst[i:n], x[i:n])
		for e := min(i+4, n); i < e; i++ {
			dst[i] = sigmoid1(x[i])
		}
	}
}
