#include "textflag.h"

// One step of four dimensions for one row: X4 holds the anchor's four
// floats, X5 and X6 are scratch, acc is the row's accumulator.
#define L2ROW(x, acc) MOVUPS (x)(R10*1), X5; MOVAPS X4, X6; SUBPS X5, X6; MULPS X6, X6; ADDPS X6, acc
#define DOTROW(x, acc) MOVUPS (x)(R10*1), X5; MOVAPS X4, X6; MULPS X5, X6; ADDPS X6, acc

// func lanes4(dot bool, q []float32, xs *[4][]float32, s *[4][4]float32)
TEXT ·lanes4(SB), NOSPLIT, $0-48
	MOVQ q_base+8(FP), SI
	MOVQ q_len+16(FP), R9
	SHLQ $2, R9
	ANDQ $-16, R9 // bytes in whole groups of four dimensions
	MOVQ xs+32(FP), R8
	MOVQ 0(R8), AX
	MOVQ 24(R8), BX
	MOVQ 48(R8), CX
	MOVQ 72(R8), DX
	XORQ R10, R10
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	CMPB dot+0(FP), $0
	JNE  dotloop

l2loop:
	CMPQ R10, R9
	JGE  done
	MOVUPS (SI)(R10*1), X4
	L2ROW(AX, X0)
	L2ROW(BX, X1)
	L2ROW(CX, X2)
	L2ROW(DX, X3)
	ADDQ $16, R10
	JMP  l2loop

dotloop:
	CMPQ R10, R9
	JGE  done
	MOVUPS (SI)(R10*1), X4
	DOTROW(AX, X0)
	DOTROW(BX, X1)
	DOTROW(CX, X2)
	DOTROW(DX, X3)
	ADDQ $16, R10
	JMP  dotloop

done:
	MOVQ   s+40(FP), R8
	MOVUPS X0, 0(R8)
	MOVUPS X1, 16(R8)
	MOVUPS X2, 32(R8)
	MOVUPS X3, 48(R8)
	RET
