#include "textflag.h"

// The constant table of boxMullerAVX2: each constant four times, so a
// 256-bit VEX memory operand (which needs no alignment) reads it as a
// full register of lanes.
#define LANES(off, v) DATA bmConst<>+(off)(SB)/8, v; DATA bmConst<>+(off+8)(SB)/8, v; DATA bmConst<>+(off+16)(SB)/8, v; DATA bmConst<>+(off+24)(SB)/8, v

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
GLOBL bmConst<>(SB), RODATA|NOPTR, $608

// func boxMullerAVX2(fs []float64) int
//
// Each group of four lanes runs math.Log's amd64 algorithm (the reduction
// of math/log_amd64.s, then FreeBSD's polynomial in the Go source's
// operation order, no FMA), then sqrt(-2*log(t)/t) with the packed
// divide and square root, which round each lane as the scalar ones do.
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-32
	MOVQ fs_base+0(FP), SI
	MOVQ fs_len+8(FP), CX
	XORQ AX, AX // elements written

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done
	VMOVUPD (SI)(AX*8), Y0 // t, and its bits b

	// Stop before a group with a lane outside [SmallestNormal, +Inf):
	// the lane needs SmallestNormal-1 < b < +Inf as signed integers.
	VPCMPGTQ  bmConst<>+0(SB), Y0, Y1
	VMOVDQU   bmConst<>+32(SB), Y2
	VPCMPGTQ  Y0, Y2, Y2
	VPAND     Y1, Y2, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       done

	// f1, k := Frexp(t); if f1 <= Sqrt2/2 { f1 *= 2; k-- }; f := f1 - 1.
	// Y4 is all ones in a lane whose mantissa field is at most √2/2's.
	VPAND    bmConst<>+0(SB), Y0, Y3
	VMOVDQU  bmConst<>+96(SB), Y4
	VPCMPGTQ Y3, Y4, Y4
	VPOR     bmConst<>+64(SB), Y3, Y3
	VPSLLQ   $52, Y4, Y5
	VPSUBQ   Y5, Y3, Y3               // f1 in (√2/2, √2]
	VSUBPD   bmConst<>+192(SB), Y3, Y3 // f

	// k = exponent field - 1022 - doubled, made a float64 by adding
	// the integer to 1.5·2^52's bits and subtracting 1.5·2^52.
	VPSRLQ $52, Y0, Y6
	VPADDQ bmConst<>+128(SB), Y6, Y6
	VPADDQ Y4, Y6, Y6
	VSUBPD bmConst<>+160(SB), Y6, Y6 // k

	// s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VADDPD bmConst<>+224(SB), Y3, Y7
	VDIVPD Y7, Y3, Y7 // s
	VMULPD Y7, Y7, Y8 // s2
	VMULPD Y8, Y8, Y9 // s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD bmConst<>+256(SB), Y9, Y10
	VADDPD bmConst<>+288(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD bmConst<>+320(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD bmConst<>+352(SB), Y10, Y10
	VMULPD Y10, Y8, Y10 // t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD bmConst<>+384(SB), Y9, Y11
	VADDPD bmConst<>+416(SB), Y11, Y11
	VMULPD Y9, Y11, Y11
	VADDPD bmConst<>+448(SB), Y11, Y11
	VMULPD Y11, Y9, Y11  // t2
	VADDPD Y11, Y10, Y10 // R

	// hfsq := 0.5 * f * f
	VMULPD bmConst<>+480(SB), Y3, Y12
	VMULPD Y3, Y12, Y12 // hfsq

	// log(t) = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y10, Y12, Y10
	VMULPD Y10, Y7, Y10
	VMULPD bmConst<>+512(SB), Y6, Y11
	VADDPD Y11, Y10, Y10
	VSUBPD Y10, Y12, Y12
	VSUBPD Y3, Y12, Y12
	VMULPD bmConst<>+544(SB), Y6, Y6
	VSUBPD Y12, Y6, Y6 // log(t)

	// math.Sqrt(-2 * log(t) / t)
	VMULPD  bmConst<>+576(SB), Y6, Y6
	VDIVPD  Y0, Y6, Y6
	VSQRTPD Y6, Y6
	VMOVUPD Y6, (SI)(AX*8)
	MOVQ    DX, AX
	JMP     loop

done:
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
