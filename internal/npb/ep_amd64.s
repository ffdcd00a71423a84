#include "textflag.h"
#include "go_asm.h"

// The constant table of epBlockAVX2 and boxMullerAVX2: each constant
// four times, so a 256-bit VEX memory operand (which needs no
// alignment) reads it as a full register of lanes, except the LCG
// multipliers, which differ by lane.
#define LANES(off, v) DATA epConst<>+(off)(SB)/8, v; DATA epConst<>+(off+8)(SB)/8, v; DATA epConst<>+(off+16)(SB)/8, v; DATA epConst<>+(off+24)(SB)/8, v
#define MULS(off, v0, v1, v2, v3) DATA epConst<>+(off)(SB)/8, v0; DATA epConst<>+(off+8)(SB)/8, v1; DATA epConst<>+(off+16)(SB)/8, v2; DATA epConst<>+(off+24)(SB)/8, v3

LANES(0, $0x000FFFFFFFFFFFFF)   // the mantissa field, and SmallestNormal's bits - 1
LANES(32, $0x7FF0000000000000)  // +Inf's bits
LANES(64, $0x3FE0000000000000)  // the exponent field of 0.5
LANES(96, $0x0006A09E667F3BCE)  // the mantissa field of math.Sqrt2/2, plus one
LANES(128, $0x4337FFFFFFFFFC02) // the bits of 1.5·2^52, minus the exponent bias 1022
LANES(160, $0x4338000000000000) // 1.5·2^52
LANES(192, $0x3FF0000000000000) // 1
LANES(224, $0x4000000000000000) // 2
LANES(256, $0x3FC2F112DF3E5244) // lg7
LANES(288, $0x3FC7466496CB03DE) // lg5
LANES(320, $0x3FD2492494229359) // lg3
LANES(352, $0x3FE5555555555593) // lg1
LANES(384, $0x3FC39A09D078C69F) // lg6
LANES(416, $0x3FCC71C51D8E78AF) // lg4
LANES(448, $0x3FD999999997FA04) // lg2
LANES(480, $0x3FE0000000000000) // 0.5
LANES(512, $0x3DEA39EF35793C76) // ln2Lo
LANES(544, $0x3FE62E42FEE00000) // ln2Hi
LANES(576, $0xC000000000000000) // -2

// The LCG multipliers a^k mod 2^46, a = 5^13: x of pair j is a^(2j+1)·s
// and y is a^(2j+2)·s. Then their high 32 bits, for VPMULUDQ.
MULS(608, $0x48C27395, $0x075988BECAAD, $0x22F7BD129B05, $0x058134FE0A9D) // a, a³, a⁵, a⁷
MULS(640, $0x34B7320334B9, $0x09208B31ADB1, $0x27D3494178E9, $0x1A82299AB461) // a², a⁴, a⁶, a⁸
MULS(672, $0, $0x0759, $0x22F7, $0x0581)
MULS(704, $0x34B7, $0x0920, $0x27D3, $0x1A82)

LANES(736, $0x00003FFFFFFFFFFF) // 2^46 - 1, the LCG state mask
LANES(768, $0x4330000000000000) // 2^52
LANES(800, $0x4330200000000000) // 2^52 + 2^45
LANES(832, $0x3D20000000000000) // 2^-45
LANES(864, $0x7FFFFFFFFFFFFFFF) // every bit but the sign
LANES(896, $0x0000000900000009) // 9 in each int32: the last annulus
GLOBL epConst<>(SB), RODATA|NOPTR, $928

// epPack<> holds the 16 VPERMD indices that move the lanes set in a
// 4-bit mask, in order, to the bottom of a register: entry m is 32
// bytes at 32·m. L<j> selects lane j's two int32 halves; the lanes
// above the packed ones are don't-cares.
#define L0 $0x0000000100000000
#define L1 $0x0000000300000002
#define L2 $0x0000000500000004
#define L3 $0x0000000700000006
#define PACK(m, p0, p1, p2, p3) DATA epPack<>+(32*m)(SB)/8, p0; DATA epPack<>+(32*m+8)(SB)/8, p1; DATA epPack<>+(32*m+16)(SB)/8, p2; DATA epPack<>+(32*m+24)(SB)/8, p3

PACK(0, L0, L1, L2, L3)
PACK(1, L0, L1, L2, L3)
PACK(2, L1, L1, L2, L3)
PACK(3, L0, L1, L2, L3)
PACK(4, L2, L1, L2, L3)
PACK(5, L0, L2, L2, L3)
PACK(6, L1, L2, L2, L3)
PACK(7, L0, L1, L2, L3)
PACK(8, L3, L1, L2, L3)
PACK(9, L0, L3, L2, L3)
PACK(10, L1, L3, L2, L3)
PACK(11, L0, L1, L3, L3)
PACK(12, L2, L3, L2, L3)
PACK(13, L0, L2, L3, L3)
PACK(14, L1, L2, L3, L3)
PACK(15, L0, L1, L2, L3)
GLOBL epPack<>(SB), RODATA|NOPTR, $512

// BOXMULLER sets Y6 to math.Sqrt(-2*math.Log(t)/t) for the four t in
// Y0, every t in [SmallestNormal, +Inf), and clobbers Y3-Y12. It runs
// math.Log's amd64 algorithm (the reduction of math/log_amd64.s, then
// FreeBSD's polynomial in the Go source's operation order, no FMA),
// then the packed divide and square root, which round each lane as the
// scalar ones do:
//
//	f1, k := Frexp(t); if f1 <= Sqrt2/2 { f1 *= 2; k-- }; f := f1 - 1
//	(Y4 is all ones in a lane whose mantissa field is at most √2/2's;
//	k = exponent field - 1022 - doubled, made a float64 by adding the
//	integer to 1.5·2^52's bits and subtracting 1.5·2^52)
//	s := f / (2 + f); s2 := s * s; s4 := s2 * s2
//	t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
//	t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
//	hfsq := 0.5 * f * f
//	log(t) = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
//	math.Sqrt(-2 * log(t) / t)
#define BOXMULLER \
	VPAND    epConst<>+0(SB), Y0, Y3;    \
	VMOVDQU  epConst<>+96(SB), Y4;       \
	VPCMPGTQ Y3, Y4, Y4;                 \
	VPOR     epConst<>+64(SB), Y3, Y3;   \
	VPSLLQ   $52, Y4, Y5;                \
	VPSUBQ   Y5, Y3, Y3;                 \
	VSUBPD   epConst<>+192(SB), Y3, Y3;  \
	VPSRLQ   $52, Y0, Y6;                \
	VPADDQ   epConst<>+128(SB), Y6, Y6;  \
	VPADDQ   Y4, Y6, Y6;                 \
	VSUBPD   epConst<>+160(SB), Y6, Y6;  \
	VADDPD   epConst<>+224(SB), Y3, Y7;  \
	VDIVPD   Y7, Y3, Y7;                 \
	VMULPD   Y7, Y7, Y8;                 \
	VMULPD   Y8, Y8, Y9;                 \
	VMULPD   epConst<>+256(SB), Y9, Y10; \
	VADDPD   epConst<>+288(SB), Y10, Y10; \
	VMULPD   Y9, Y10, Y10;               \
	VADDPD   epConst<>+320(SB), Y10, Y10; \
	VMULPD   Y9, Y10, Y10;               \
	VADDPD   epConst<>+352(SB), Y10, Y10; \
	VMULPD   Y10, Y8, Y10;               \
	VMULPD   epConst<>+384(SB), Y9, Y11; \
	VADDPD   epConst<>+416(SB), Y11, Y11; \
	VMULPD   Y9, Y11, Y11;               \
	VADDPD   epConst<>+448(SB), Y11, Y11; \
	VMULPD   Y11, Y9, Y11;               \
	VADDPD   Y11, Y10, Y10;              \
	VMULPD   epConst<>+480(SB), Y3, Y12; \
	VMULPD   Y3, Y12, Y12;               \
	VADDPD   Y10, Y12, Y10;              \
	VMULPD   Y10, Y7, Y10;               \
	VMULPD   epConst<>+512(SB), Y6, Y11; \
	VADDPD   Y11, Y10, Y10;              \
	VSUBPD   Y10, Y12, Y12;              \
	VSUBPD   Y3, Y12, Y12;               \
	VMULPD   epConst<>+544(SB), Y6, Y6;  \
	VSUBPD   Y12, Y6, Y6;                \
	VMULPD   epConst<>+576(SB), Y6, Y6;  \
	VDIVPD   Y0, Y6, Y6;                 \
	VSQRTPD  Y6, Y6

// MUL46 sets dst to the low 46 bits of s·c in each lane, exactly: with
// s = sh·2^32 + sl and c = ch·2^32 + cl, s·c mod 2^64 is
// sl·cl + (sl·ch + sh·cl)·2^32. s and sh hold the state and its high
// half; clo and chi are the multipliers and their high halves; t is
// clobbered.
#define MUL46(s, sh, clo, chi, t, dst) \
	VPMULUDQ chi, s, t;    \
	VPMULUDQ clo, sh, dst; \
	VPADDQ   dst, t, t;    \
	VPSLLQ   $32, t, t;    \
	VPMULUDQ clo, s, dst;  \
	VPADDQ   t, dst, dst;  \
	VPAND    Y11, dst, dst

// UNIFORM turns the 46-bit integers v in dst into 2·(v·2^-46) - 1 with
// those bits: 2^52 + v is exact, so is subtracting 2^52 + 2^45, and
// scaling by 2^-45 is exact too.
#define UNIFORM(dst) \
	VPOR   Y10, dst, dst; \
	VSUBPD Y9, dst, dst;  \
	VMULPD Y8, dst, dst

// FILL fills and accepts the four pairs from pair AX: x in Y2 and y in
// Y3 come from the state s in R8 with no shuffle, t = x*x + y*y
// unfused, and the lanes in the mask BX with t <= 1 are packed to b.xs,
// b.ys and b.fs at DX, the accepted count. The state then moves on by
// the multiplier mul.
#define FILL(mul) \
	VMOVQ        R8, X0;                          \
	VPBROADCASTQ X0, Y0;                          \
	VPSRLQ       $32, Y0, Y1;                     \
	MUL46(Y0, Y1, Y15, Y13, Y4, Y2);              \
	MUL46(Y0, Y1, Y14, Y12, Y5, Y3);              \
	UNIFORM(Y2);                                  \
	UNIFORM(Y3);                                  \
	VMULPD       Y2, Y2, Y4;                      \
	VMULPD       Y3, Y3, Y5;                      \
	VADDPD       Y5, Y4, Y4;                      \
	VCMPPD       $2, Y7, Y4, Y5;                  \
	VMOVMSKPD    Y5, R12;                         \
	ANDL         BX, R12;                         \
	IMULQ        mul, R8;                         \
	ANDQ         R10, R8;                         \
	MOVQ         R12, R13;                        \
	SHLQ         $5, R13;                         \
	VMOVDQU      (R11)(R13*1), Y5;                \
	VPERMD       Y2, Y5, Y2;                      \
	VPERMD       Y3, Y5, Y3;                      \
	VPERMD       Y4, Y5, Y4;                      \
	VMOVUPD      Y2, epBuf_xs(SI)(DX*8);          \
	VMOVUPD      Y3, epBuf_ys(SI)(DX*8);          \
	VMOVUPD      Y4, epBuf_fs(SI)(DX*8);          \
	POPCNTL      R12, R12;                        \
	ADDQ         R12, DX;                         \
	ADDQ         $4, AX

// HISTSUM counts and sums the group of four accepted pairs before
// pair AX, whose factors are in b.fs.
#define HISTSUM \
	VMOVUPD      (epBuf_fs-32)(SI)(AX*8), Y0; \
	VMULPD       (epBuf_xs-32)(SI)(AX*8), Y0, Y1; \
	VMULPD       (epBuf_ys-32)(SI)(AX*8), Y0, Y2; \
	VANDPD       Y15, Y1, Y3; \
	VANDPD       Y15, Y2, Y4; \
	VMAXPD       Y4, Y3, Y3; \
	VCVTTPD2DQY  Y3, X3; \
	VPMINSD      epConst<>+896(SB), X3, X3; \
	VMOVQ        X3, R12; \
	VPEXTRQ      $1, X3, R13; \
	MOVL         R12, BX; \
	SHRQ         $32, R12; \
	INCQ         epSums_q(DI)(BX*8); \
	INCQ         (epSums_q+80)(DI)(R12*8); \
	MOVL         R13, BX; \
	SHRQ         $32, R13; \
	INCQ         (epSums_q+160)(DI)(BX*8); \
	INCQ         (epSums_q+240)(DI)(R13*8); \
	VADDSD       X1, X13, X13; \
	VADDSD       X2, X14, X14; \
	VPERMILPD    $1, X1, X3; \
	VPERMILPD    $1, X2, X4; \
	VADDSD       X3, X13, X13; \
	VADDSD       X4, X14, X14; \
	VEXTRACTF128 $1, Y1, X1; \
	VEXTRACTF128 $1, Y2, X2; \
	VADDSD       X1, X13, X13; \
	VADDSD       X2, X14, X14; \
	VPERMILPD    $1, X1, X1; \
	VPERMILPD    $1, X2, X2; \
	VADDSD       X1, X13, X13; \
	VADDSD       X2, X14, X14

// func epBlockAVX2(s uint64, nb int, b *epBuf, acc *epSums) (state uint64, n int)
TEXT ·epBlockAVX2(SB), NOSPLIT, $0-48
	MOVQ s+0(FP), R8
	MOVQ nb+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ acc+24(FP), DI
	XORQ AX, AX // pairs filled, a multiple of four
	XORQ DX, DX // pairs accepted
	MOVQ epConst<>+664(SB), R9  // a⁸
	MOVQ epConst<>+736(SB), R10 // 2^46 - 1
	LEAQ epPack<>(SB), R11
	VMOVDQU epConst<>+608(SB), Y15
	VMOVDQU epConst<>+640(SB), Y14
	VMOVDQU epConst<>+672(SB), Y13
	VMOVDQU epConst<>+704(SB), Y12
	VMOVDQU epConst<>+736(SB), Y11
	VMOVDQU epConst<>+768(SB), Y10
	VMOVDQU epConst<>+800(SB), Y9
	VMOVDQU epConst<>+832(SB), Y8
	VMOVDQU epConst<>+192(SB), Y7

	// Fill and accept four pairs a step, while a whole group is left.
	LEAQ -4(CX), R14 // the last pair a whole group can start at
	MOVL $15, BX     // the lanes that hold a pair of the block
	CMPQ AX, R14
	JGT  tail

fill:
	FILL(R9)
	CMPQ AX, R14
	JLE  fill

tail:
	// Fewer than four pairs left, r of them: lanes [0, r) hold pairs,
	// and the state moves on by a^(2r), y's multiplier in lane r-1.
	MOVQ CX, R12
	SUBQ AX, R12
	JLE  filled
	XORL BX, BX
	BTSL R12, BX
	DECL BX
	LEAQ epConst<>+632(SB), R13
	MOVQ (R13)(R12*8), R13
	FILL(R13)

filled:
	MOVQ R8, state+32(FP)
	MOVQ DX, n+40(FP)

	// Factor, count and sum each whole group of four accepted pairs.
	// The sums in X13 and X14 take gx and gy one lane at a time, in
	// pair order; the annulus counts go to acc.q[lane].
	ANDQ    $~3, DX
	XORQ    AX, AX
	VMOVSD  epSums_sx(DI), X13
	VMOVSD  epSums_sy(DI), X14
	VMOVDQU epConst<>+864(SB), Y15

	TESTQ   DX, DX
	JZ      done
	VMOVUPD epBuf_fs(SI), Y0
	BOXMULLER
	VMOVUPD Y6, epBuf_fs(SI)
	MOVQ    $4, AX

factor:
	CMPQ    AX, DX
	JGE     last
	VMOVUPD epBuf_fs(SI)(AX*8), Y0
	BOXMULLER
	VMOVUPD Y6, epBuf_fs(SI)(AX*8)
	HISTSUM
	ADDQ    $4, AX
	JMP     factor

last:
	HISTSUM

done:
	VMOVSD X13, epSums_sx(DI)
	VMOVSD X14, epSums_sy(DI)
	VZEROUPPER
	RET

// func boxMullerAVX2(fs []float64) int
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-32
	MOVQ fs_base+0(FP), SI
	MOVQ fs_len+8(FP), CX
	XORQ AX, AX // elements written

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  bmdone
	VMOVUPD (SI)(AX*8), Y0 // t, and its bits b

	// Stop before a group with a lane outside [SmallestNormal, +Inf):
	// the lane needs SmallestNormal-1 < b < +Inf as signed integers.
	VPCMPGTQ  epConst<>+0(SB), Y0, Y1
	VMOVDQU   epConst<>+32(SB), Y2
	VPCMPGTQ  Y0, Y2, Y2
	VPAND     Y1, Y2, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       bmdone

	BOXMULLER
	VMOVUPD Y6, (SI)(AX*8)
	MOVQ    DX, AX
	JMP     loop

bmdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
