#include "textflag.h"

// AVX2 bodies for GemmSW, TanhV and SigmoidV. Each 64-bit lane runs the
// same IEEE-754 double operations as the scalar Go code, in the same
// order, so every result is bit-identical to the pure-Go kernel:
// VMULPD/VADDPD/VSUBPD/VDIVPD round exactly like MULSD/ADDSD/SUBSD/DIVSD,
// VROUNDPD $1 is math.Floor, and there is no FMA (a fused multiply-add
// rounds once where the Go code rounds twice). BP is not used, so
// frame-pointer unwinding stays intact, and every function that touches
// YMM registers ends with VZEROUPPER.

// CONST4 replicates one float64 bit pattern into a 32-byte lane group
// of vc, so it can be a VEX memory operand.
#define CONST4(off, bits) \
	DATA vc<>+(off+0)(SB)/8, $bits; \
	DATA vc<>+(off+8)(SB)/8, $bits; \
	DATA vc<>+(off+16)(SB)/8, $bits; \
	DATA vc<>+(off+24)(SB)/8, $bits

CONST4(0x000, 0x7fffffffffffffff) // ^signBit
CONST4(0x020, 0x8000000000000000) // signBit
CONST4(0x040, 0x3ff0000000000000) // 1
CONST4(0x060, 0x3fe0000000000000) // 0.5
CONST4(0x080, 0x3ff71547652b82fe) // expLog2E
CONST4(0x0a0, 0x3fe62e4000000000) // expLn2Hi
CONST4(0x0c0, 0x3eb7f7d1cf79abca) // expLn2Lo
CONST4(0x0e0, 0x3f2089cdd5e44be8) // expP0
CONST4(0x100, 0x3f9f06d10cca2c7e) // expP1
CONST4(0x120, 0x3ff0000000000000) // expP2
CONST4(0x140, 0x3ec92eb6bc365fa0) // expQ0
CONST4(0x160, 0x3f64ae39b508b6c0) // expQ1
CONST4(0x180, 0x3fcd17099887e074) // expQ2
CONST4(0x1a0, 0x4000000000000000) // expQ3
CONST4(0x1c0, 0x43300000000003ff) // 2^52 + 1023
CONST4(0x1e0, 0xbfeedc5baafd6f4b) // tanhP0
CONST4(0x200, 0xc058d26a0e26682d) // tanhP1
CONST4(0x220, 0xc0993ac030580563) // tanhP2
CONST4(0x240, 0x405c33f28a581b86) // tanhQ0
CONST4(0x260, 0x40a176fa0e5535fa) // tanhQ1
CONST4(0x280, 0x40b2ec102442040c) // tanhQ2
CONST4(0x2a0, 0x3fe4000000000000) // 0.625
CONST4(0x2c0, 0x4034000000000000) // tanhSatCut
CONST4(0x2e0, 0x4086200000000000) // expFastCut
GLOBL vc<>(SB), RODATA|NOPTR, $0x300

#define ABSMASK vc<>+0x000(SB)
#define SIGNMASK vc<>+0x020(SB)
#define ONE vc<>+0x040(SB)
#define HALF vc<>+0x060(SB)
#define LOG2E vc<>+0x080(SB)
#define LN2HI vc<>+0x0a0(SB)
#define LN2LO vc<>+0x0c0(SB)
#define EP0 vc<>+0x0e0(SB)
#define EP1 vc<>+0x100(SB)
#define EP2 vc<>+0x120(SB)
#define EQ0 vc<>+0x140(SB)
#define EQ1 vc<>+0x160(SB)
#define EQ2 vc<>+0x180(SB)
#define EQ3 vc<>+0x1a0(SB)
#define EXPBIAS vc<>+0x1c0(SB)
#define TP0 vc<>+0x1e0(SB)
#define TP1 vc<>+0x200(SB)
#define TP2 vc<>+0x220(SB)
#define TQ0 vc<>+0x240(SB)
#define TQ1 vc<>+0x260(SB)
#define TQ2 vc<>+0x280(SB)
#define SMALLCUT vc<>+0x2a0(SB)
#define SATCUT vc<>+0x2c0(SB)
#define FASTCUT vc<>+0x2e0(SB)

// VCMPPD predicates.
#define LT_OQ $0x11
#define LE_OQ $0x12
#define NEQ_UQ $0x04

// EXPRAT is expRat on the four lanes of Y8 (|Y8| ≤ expFastCut):
//
//	Y9  = scale = 2^k, k = floor(expLog2E·y + 0.5)
//	Y12 = p = r·((expP0·z + expP1)·z + expP2)
//	Y13 = q = ((expQ0·z + expQ1)·z + expQ2)·z + expQ3
//
// with r = (y − k·expLn2Hi) − k·expLn2Lo and z = r·r; num = q+p and
// den = q−p are left to the caller. 2^k is built from integer bits:
// k + (2^52 + 1023) is exact for |k| < 2^51 and holds k + 1023 in its
// low mantissa bits, which a 52-bit left shift moves into the exponent
// field — the bits of math.Float64frombits(uint64(int64(k)+1023)<<52).
// Clobbers Y10, Y11.
#define EXPRAT \
	VMULPD   LOG2E, Y8, Y9;   \
	VADDPD   HALF, Y9, Y9;    \
	VROUNDPD $1, Y9, Y9;      \
	VMULPD   LN2HI, Y9, Y10;  \
	VSUBPD   Y10, Y8, Y10;    \
	VMULPD   LN2LO, Y9, Y11;  \
	VSUBPD   Y11, Y10, Y10;   \
	VMULPD   Y10, Y10, Y11;   \
	VMULPD   EP0, Y11, Y12;   \
	VADDPD   EP1, Y12, Y12;   \
	VMULPD   Y11, Y12, Y12;   \
	VADDPD   EP2, Y12, Y12;   \
	VMULPD   Y12, Y10, Y12;   \
	VMULPD   EQ0, Y11, Y13;   \
	VADDPD   EQ1, Y13, Y13;   \
	VMULPD   Y11, Y13, Y13;   \
	VADDPD   EQ2, Y13, Y13;   \
	VMULPD   Y11, Y13, Y13;   \
	VADDPD   EQ3, Y13, Y13;   \
	VADDPD   EXPBIAS, Y9, Y9; \
	VPSLLQ   $52, Y9, Y9

// TANHPOLY is tanh1's small-argument branch on x in Y0 with z = x·x in
// Y2: Y6 = x + x·z·((tanhP0·z + tanhP1)·z + tanhP2) /
// (((z + tanhQ0)·z + tanhQ1)·z + tanhQ2). Clobbers Y8–Y10.
#define TANHPOLY \
	VMULPD TP0, Y2, Y8;  \
	VADDPD TP1, Y8, Y8;  \
	VMULPD Y2, Y8, Y8;   \
	VADDPD TP2, Y8, Y8;  \
	VADDPD TQ0, Y2, Y9;  \
	VMULPD Y2, Y9, Y9;   \
	VADDPD TQ1, Y9, Y9;  \
	VMULPD Y2, Y9, Y9;   \
	VADDPD TQ2, Y9, Y9;  \
	VMULPD Y2, Y0, Y10;  \
	VMULPD Y8, Y10, Y10; \
	VDIVPD Y9, Y10, Y10; \
	VADDPD Y10, Y0, Y6

// TANHEXP is tanh1's exp branch on x in Y0 with |x| in Y1:
// t = 1 − 2·den/(s·num + den) for expRat(2|x|), and Y7 = t with x's
// sign bit OR-ed in (t > 0, so that is tanh1's -t for x < 0). 2·a is
// a+a: doubling is exact either way. Clobbers Y8–Y13.
#define TANHEXP \
	VADDPD Y1, Y1, Y8;      \
	EXPRAT;                 \
	VADDPD Y12, Y13, Y10;   \
	VSUBPD Y12, Y13, Y11;   \
	VMULPD Y10, Y9, Y10;    \
	VADDPD Y11, Y10, Y10;   \
	VADDPD Y11, Y11, Y11;   \
	VDIVPD Y10, Y11, Y11;   \
	VMOVUPD ONE, Y12;       \
	VSUBPD Y11, Y12, Y12;   \
	VANDPD SIGNMASK, Y0, Y13; \
	VORPD  Y13, Y12, Y7

// func tanhAVX2(dst, x []float64) int
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	MOVQ   dst_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), CX
	SHRQ   $2, CX
	XORQ   AX, AX
	VXORPD Y15, Y15, Y15
	TESTQ  CX, CX
	JZ     tanhdone

tanhloop:
	VMOVUPD   (SI)(AX*1), Y0
	VANDPD    ABSMASK, Y0, Y1
	VMULPD    Y0, Y0, Y2
	VCMPPD    LT_OQ, SMALLCUT, Y1, Y3 // polynomial lanes: |x| < 0.625
	VCMPPD    NEQ_UQ, Y15, Y2, Y4
	VANDPD    Y4, Y3, Y4              // … with z != 0
	VCMPPD    LE_OQ, SATCUT, Y1, Y5
	VANDNPD   Y5, Y3, Y5              // exp lanes: 0.625 ≤ |x| ≤ tanhSatCut
	VORPD     Y5, Y4, Y5
	VMOVMSKPD Y5, BX
	CMPQ      BX, $15
	JNE       tanhdone                // a lane stays in Go
	VMOVMSKPD Y3, BX
	CMPQ      BX, $15
	JEQ       tanhpoly
	TANHEXP
	TESTQ     BX, BX
	JZ        tanhstore
	TANHPOLY
	VBLENDVPD Y3, Y6, Y7, Y7          // each lane takes its own branch

tanhstore:
	VMOVUPD Y7, (DI)(AX*1)
	JMP     tanhnext

tanhpoly:
	TANHPOLY
	VMOVUPD Y6, (DI)(AX*1)

tanhnext:
	ADDQ $32, AX
	DECQ CX
	JNZ  tanhloop

tanhdone:
	SHRQ       $3, AX
	MOVQ       AX, ret+48(FP)
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, x []float64) int
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ  dst_base+0(FP), DI
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), CX
	SHRQ  $2, CX
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    sigdone

sigloop:
	VMOVUPD   (SI)(AX*1), Y0
	VANDPD    ABSMASK, Y0, Y1
	VCMPPD    LE_OQ, FASTCUT, Y1, Y2 // |x| ≤ expFastCut, false for NaN
	VMOVMSKPD Y2, BX
	CMPQ      BX, $15
	JNE       sigdone
	VORPD     SIGNMASK, Y1, Y8       // y = −|x|
	EXPRAT
	VSUBPD    Y12, Y13, Y11          // den = q − p
	VADDPD    Y12, Y13, Y10
	VMULPD    Y10, Y9, Y10           // s·num
	VBLENDVPD Y0, Y10, Y11, Y12      // numerator: s·num where x's sign is set, else den
	VADDPD    Y10, Y11, Y13
	VDIVPD    Y13, Y12, Y12
	VMOVUPD   Y12, (DI)(AX*1)
	ADDQ      $32, AX
	DECQ      CX
	JNZ       sigloop

sigdone:
	SHRQ       $3, AX
	MOVQ       AX, ret+48(FP)
	VZEROUPPER
	RET

// func gemmSWAVX2(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, w, k int)
//
// Register use: DI C row, SI A row, DX B (row 0, column 0), R8 ldc,
// R9 lda, R10 ldb (all in bytes), CX rows left, BX w in bytes, AX the
// column byte offset, R11 the A term pointer, R12 the end of the A
// row's k terms, R13 the B pointer. Y0–Y3 hold C, Y4–Y7 the broadcast
// terms a[l..l+3], Y8–Y15 the block sums.
TEXT ·gemmSWAVX2(SB), NOSPLIT, $0-120
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), DX
	MOVQ ldb+88(FP), R10
	SHLQ $3, R10
	MOVQ m+96(FP), CX
	MOVQ w+104(FP), BX
	SHLQ $3, BX
	MOVQ k+112(FP), R12
	LEAQ (SI)(R12*8), R12

gemmrow:
	XORQ AX, AX

gemmcol16:
	LEAQ    128(AX), R11
	CMPQ    R11, BX
	JGT     gemmcol4
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	MOVQ    SI, R11
	LEAQ    (DX)(AX*1), R13

gemmloop16:
	// One block: c[j] += ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
	// for 16 columns j.
	VBROADCASTSD (R11), Y4
	VBROADCASTSD 8(R11), Y5
	VBROADCASTSD 16(R11), Y6
	VBROADCASTSD 24(R11), Y7
	VMULPD       (R13), Y4, Y8
	VMULPD       (R13)(R10*1), Y5, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       32(R13), Y4, Y10
	VMULPD       32(R13)(R10*1), Y5, Y11
	VADDPD       Y11, Y10, Y10
	VMULPD       64(R13), Y4, Y12
	VMULPD       64(R13)(R10*1), Y5, Y13
	VADDPD       Y13, Y12, Y12
	VMULPD       96(R13), Y4, Y14
	VMULPD       96(R13)(R10*1), Y5, Y15
	VADDPD       Y15, Y14, Y14
	LEAQ         (R13)(R10*2), R13
	VMULPD       (R13), Y6, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       32(R13), Y6, Y11
	VADDPD       Y11, Y10, Y10
	VMULPD       64(R13), Y6, Y13
	VADDPD       Y13, Y12, Y12
	VMULPD       96(R13), Y6, Y15
	VADDPD       Y15, Y14, Y14
	VMULPD       (R13)(R10*1), Y7, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       32(R13)(R10*1), Y7, Y11
	VADDPD       Y11, Y10, Y10
	VMULPD       64(R13)(R10*1), Y7, Y13
	VADDPD       Y13, Y12, Y12
	VMULPD       96(R13)(R10*1), Y7, Y15
	VADDPD       Y15, Y14, Y14
	LEAQ         (R13)(R10*2), R13
	VADDPD       Y8, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y12, Y2, Y2
	VADDPD       Y14, Y3, Y3
	ADDQ         $32, R11
	CMPQ         R11, R12
	JNE          gemmloop16
	VMOVUPD      Y0, (DI)(AX*1)
	VMOVUPD      Y1, 32(DI)(AX*1)
	VMOVUPD      Y2, 64(DI)(AX*1)
	VMOVUPD      Y3, 96(DI)(AX*1)
	ADDQ         $128, AX
	JMP          gemmcol16

gemmcol4:
	CMPQ    AX, BX
	JEQ     gemmnextrow
	VMOVUPD (DI)(AX*1), Y0
	MOVQ    SI, R11
	LEAQ    (DX)(AX*1), R13

gemmloop4:
	VBROADCASTSD (R11), Y4
	VBROADCASTSD 8(R11), Y5
	VBROADCASTSD 16(R11), Y6
	VBROADCASTSD 24(R11), Y7
	VMULPD       (R13), Y4, Y8
	VMULPD       (R13)(R10*1), Y5, Y9
	VADDPD       Y9, Y8, Y8
	LEAQ         (R13)(R10*2), R13
	VMULPD       (R13), Y6, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       (R13)(R10*1), Y7, Y9
	VADDPD       Y9, Y8, Y8
	LEAQ         (R13)(R10*2), R13
	VADDPD       Y8, Y0, Y0
	ADDQ         $32, R11
	CMPQ         R11, R12
	JNE          gemmloop4
	VMOVUPD      Y0, (DI)(AX*1)
	ADDQ         $32, AX
	JMP          gemmcol4

gemmnextrow:
	ADDQ R8, DI
	ADDQ R9, SI
	ADDQ R9, R12
	DECQ CX
	JNZ  gemmrow
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
