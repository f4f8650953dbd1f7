//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 tier of the JSON number codec: the decoder's run scanner and
// the encoder's batch formatter. Both are checked against the Go code in
// atof.go and ftoa.go, which stays the generic tier (see simd.go).

// tailMask: 32 zero bytes, then 32 bytes of 0xFF. The 32 bytes at offset
// n keep the last n bytes of a vector.
DATA tailMask<>+0x00(SB)/8, $0
DATA tailMask<>+0x08(SB)/8, $0
DATA tailMask<>+0x10(SB)/8, $0
DATA tailMask<>+0x18(SB)/8, $0
DATA tailMask<>+0x20(SB)/8, $-1
DATA tailMask<>+0x28(SB)/8, $-1
DATA tailMask<>+0x30(SB)/8, $-1
DATA tailMask<>+0x38(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func scanRunAVX2(p *byte, avail int, dst *uint64, max int, meta *uint32) int
//
// Scans up to max consecutive tokens of the form -?(0|[1-9][0-9]*)(\.[0-9]+)?
// each followed directly by a comma, starting at p, while at least 64
// bytes of the avail-byte window are left at a token's start. For token j
// it stores the integer its digits spell to dst[j] and to meta[j] the
// fraction's digit count (bits 0–7), the sign (bit 8) and the token's
// bytes with its comma (bits 9–31). It stops, without storing, at the
// first token it does not recognise: one with more than 19 significant
// digits, an exponent, whitespace around it, or anything the grammar
// refuses. It returns how many tokens it stored. The 32 bytes before p
// must be readable.
//
// Per token one 32-byte load gives the first comma, where the next token
// starts (the loop's only dependency from token to token), and the digit
// mask; BSF finds the integer and fraction lengths, which must end at that
// comma. The digits are folded by two loads ending at the last digit, one
// a byte earlier so that the integer digits close up on the fraction,
// blended and masked to the token's digits, then folded right-aligned by a
// PMADDUBSW/PMADDWD ladder into four eight-digit groups.
TEXT ·scanRunAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ avail+8(FP), DX
	MOVQ dst+16(FP), DI
	MOVQ max+24(FP), R11
	MOVQ meta+32(FP), R8
	LEAQ -64(SI)(DX*1), DX // the last token start with 64 bytes left
	LEAQ tailMask<>(SB), R10

	// Digit test: b+0x46 > 0x75 as signed bytes exactly when b is '0'…'9'.
	MOVQ $0x4646464646464646, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ $0x7575757575757575, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0x2C2C2C2C2C2C2C2C, AX // ','
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ $0x3030303030303030, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ $0x010A010A010A010A, AX // byte weights 10, 1
	VMOVQ AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ $0x0001006400010064, AX // word weights 100, 1
	VMOVQ AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ $0x0001271000012710, AX // word weights 10000, 1
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8

	MOVQ R11, ret+40(FP)

loop:
	CMPQ SI, DX
	JHI  done
	TESTQ R11, R11
	JEQ  done
	VMOVDQU (SI), Y0
	VPCMPEQB Y13, Y0, Y2
	VPMOVMSKB Y2, R9
	BSFL R9, R9 // the first comma
	JEQ  done
	VPADDB  Y15, Y0, Y1
	VPCMPGTB Y14, Y1, Y1
	VPMOVMSKB Y1, AX
	NOTQ AX // non-digit bits; bits 32–63 set

	// The sign: skip it, positions are relative to the first digit on.
	XORL CX, CX
	CMPB (SI), $0x2D // '-'
	SETEQ CX
	LEAQ 1(R9), R13
	SHLQ $9, R13
	MOVQ CX, R12
	SHLQ $8, R12
	ORQ  R12, R13 // meta: the token's bytes and sign
	ADDQ CX, SI
	SUBQ CX, R9
	SHRQ CX, AX
	BSFQ AX, BX // integer digits
	LEAQ -1(BX), CX
	CMPQ CX, $19
	JHI  done // none, or more than 20

	// A leading zero stands alone: R12 = ni when the first digit is '0',
	// which must then be 1.
	XORL R12, R12
	CMPB (SI), $0x30
	CMOVQEQ BX, R12
	CMPQ R12, $1
	JHI  done
	ADDQ $19, R12 // most digits a token may have: 19, or 20 from "0."

	CMPB (SI)(BX*1), $0x2E // '.'
	JNE  integer
	LEAQ 1(BX), CX
	MOVQ AX, R14
	SHRQ CX, R14
	BSFQ R14, R14 // fraction digits
	TESTQ R14, R14
	JEQ  done
	LEAQ (BX)(R14*1), CX // digits in all
	CMPQ CX, R12
	JHI  done
	ORQ  R14, R13
	MOVQ R14, R12 // digits after the point
	LEAQ 1(CX), BX // end of the token
	JMP  fold

integer:
	CMPQ BX, R12
	JHI  done
	MOVQ BX, CX
	MOVQ BX, R12

fold:
	// BX: the token's end past the first digit, which must be the comma,
	// CX: its digits, R12: the digits after the point (all of them with
	// no point).
	CMPQ BX, R9
	JNE  done
	VMOVDQU -32(SI)(BX*1), Y1
	VMOVDQU -33(SI)(BX*1), Y2
	VMOVDQU (R10)(R12*1), Y3
	VPBLENDVB Y3, Y1, Y2, Y1
	VPAND   (R10)(CX*1), Y1, Y1
	VPSUBUSB Y11, Y1, Y1
	VPMADDUBSW Y10, Y1, Y1
	VPMADDWD Y9, Y1, Y1
	VPACKUSDW Y1, Y1, Y1
	VPMADDWD Y8, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	// The groups g0…g3 are 32-bit lanes 0, 1, 4 and 5; g0 is zero (at
	// most 20 digits), and the value is (g1·10^8 + g2)·10^8 + g3.
	VMOVQ X1, AX
	VMOVQ X2, CX
	SHRQ $32, AX
	MOVL CX, R12
	IMULQ $100000000, AX
	ADDQ R12, AX
	SHRQ $32, CX
	IMULQ $100000000, AX
	ADDQ CX, AX
	MOVQ AX, (DI)
	MOVL R13, (R8)

	LEAQ 1(SI)(R9*1), SI
	ADDQ $8, DI
	ADDQ $4, R8
	DECQ R11
	JMP  loop

done:
	MOVQ ret+40(FP), AX
	SUBQ R11, AX
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func formatBatchAVX2(dst *byte, digits *uint32, meta *uint64, n int, layouts *[layoutRows][64]byte) int
//
// Writes n values, each followed by a comma, to dst and returns the bytes
// written. Value i is given by digits[2i], digits[2i+1] (its digits 2–9
// and 10–17 of 17, the first being non-zero) and meta[i]: the first digit
// in ASCII (bits 0–7), the layout row dp+5 (bits 8–15), the sign (bit 16),
// where the first digit goes (bits 24–31), the bytes before the digits
// (bits 32–39) and dp for an integer layout, else 0 (bits 40–47). dp is
// the decimal point's position, −5 … 17. Every value stores 32 bytes from
// its first digit on, which the next value or the caller overwrites.
//
// Two values at a time, their four eight-digit groups are spelled by the
// SWAR eightDigits in 64-bit lanes. Each value's sixteen lower digits are
// then broadcast to both halves of a register, shuffled into place by the
// layout row's mask (layouts[row][:32]), and the point, "0." and zeros
// OR'd in from its fill (layouts[row][32:]).
TEXT ·formatBatchAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ digits+8(FP), SI
	MOVQ meta+16(FP), R8
	MOVQ n+24(FP), R11
	MOVQ layouts+32(FP), R10
	MOVQ DI, R9

	MOVQ $0xD1B71759, AX // ⌈2^45 / 10^4⌉
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ $10000, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0x147B147B147B147B, AX // 5243 = ⌈2^19 / 100⌉
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ $0x0064006400640064, AX
	VMOVQ AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ $0x199A199A199A199A, AX // 6554 = ⌈2^16 / 10⌉
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ $0x000A000A000A000A, AX
	VMOVQ AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ $0x3030303030303030, AX
	VMOVQ AX, X9
	VPBROADCASTQ X9, Y9

// FORMAT writes the value whose sixteen lower digits are in both halves of
// Y1 and whose meta is at (R8).
#define FORMAT \
	MOVQ (R8), AX; \
	MOVL AX, BX; \
	SHRL $8, BX; \
	ANDL $0xFF, BX; \
	SHLQ $6, BX; \
	VPSHUFB (R10)(BX*1), Y1, Y2; \
	VPOR 32(R10)(BX*1), Y2, Y2; \
	VPCMPEQB Y9, Y1, Y3; \
	VPMOVMSKB Y3, CX; \
	NOTL CX; \
	ANDL $0xFFFF, CX; \
	LEAL 1(CX)(CX*1), CX; \
	BSRL CX, CX; \
	INCL CX; \
	MOVB $0x2D, (DI); \
	MOVL AX, R12; \
	SHRL $16, R12; \
	ANDL $1, R12; \
	ADDQ R12, DI; \
	VMOVDQU Y2, (DI); \
	MOVL AX, R12; \
	SHRL $24, R12; \
	MOVB AX, (DI)(R12*1); \
	MOVQ AX, R12; \
	SHRQ $32, R12; \
	ANDL $0xFF, R12; \
	ADDQ CX, R12; \
	SHRQ $40, AX; \
	ANDL $0xFF, AX; \
	CMPQ CX, AX; \
	CMOVQLS AX, R12; \
	MOVB $0x2C, (DI)(R12*1); \
	LEAQ 1(DI)(R12*1), DI; \
	ADDQ $8, R8

loop:
	TESTQ R11, R11
	JEQ  done
	VPMOVZXDQ (SI), Y0
	// v = q·10^4 + r, q and r in the two halves of each 64-bit lane.
	VPMULUDQ Y15, Y0, Y1
	VPSRLQ $45, Y1, Y1
	VPMULUDQ Y14, Y1, Y2
	VPSUBQ Y2, Y0, Y0
	VPSLLQ $32, Y0, Y0
	VPOR Y1, Y0, Y0
	// Each half x = (x/100)·100 + x%100 in its two 16-bit words.
	VPMULHUW Y13, Y0, Y1
	VPSRLW $3, Y1, Y1
	VPMULLW Y12, Y1, Y2
	VPSUBW Y2, Y0, Y0
	VPSLLD $16, Y0, Y0
	VPOR Y1, Y0, Y0
	// Each word y = (y/10)·10 + y%10 in its two bytes.
	VPMULHUW Y11, Y0, Y1
	VPMULLW Y10, Y1, Y2
	VPSUBW Y2, Y0, Y0
	VPSLLW $8, Y0, Y0
	VPOR Y1, Y0, Y0
	VPOR Y9, Y0, Y0

	VPERM2I128 $0x00, Y0, Y0, Y1
	FORMAT
	DECQ R11
	JEQ  done
	VPERM2I128 $0x11, Y0, Y0, Y1
	FORMAT
	DECQ R11
	ADDQ $16, SI
	JMP  loop

done:
	SUBQ R9, DI
	MOVQ DI, ret+40(FP)
	VZEROUPPER
	RET
