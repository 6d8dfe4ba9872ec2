//go:build !amd64

package f64

// Without amd64 assembly every kernel runs its pure-Go body.
const useAVX2 = false

func gemmSW(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, w, k int) {
	gemmSWGo(c, ldc, a, lda, b, ldb, m, w, k)
}

func tanhV(dst, x []float64) { tanhVGo(dst, x) }

func sigmoidV(dst, x []float64) { sigmoidVGo(dst, x) }
