#include "textflag.h"

// One step of four dimensions for one row: X4 holds the anchor's four
// floats, X5 and X6 are scratch, acc is the row's accumulator.
#define L2ROW(x, acc) MOVUPS (x)(R10*1), X5; MOVAPS X4, X6; SUBPS X5, X6; MULPS X6, X6; ADDPS X6, acc
#define DOTROW(x, acc) MOVUPS (x)(R10*1), X5; MOVAPS X4, X6; MULPS X5, X6; ADDPS X6, acc

// One dimension of the dim%4 tail for one row, into lane 0 of acc.
#define L2TAIL(x, acc) MOVSS (SI)(R10*1), X6; SUBSS (x)(R10*1), X6; MULSS X6, X6; ADDSS X6, acc
#define DOTTAIL(x, acc) MOVSS (SI)(R10*1), X6; MULSS (x)(R10*1), X6; ADDSS X6, acc

// acc's lane 0 becomes ((s0+s1)+s2)+s3 of its four lanes.
#define HSUM(acc) PSHUFD $0x55, acc, X5; ADDSS X5, acc; PSHUFD $0xaa, acc, X5; ADDSS X5, acc; PSHUFD $0xff, acc, X5; ADDSS X5, acc

// reg points at row rows[off/4] of data (DI); R13 walks rows.
#define ROWPTR(reg, off) MOVL off(R13), reg; IMULQ R11, reg; ADDQ DI, reg

// Registers: SI q, DI data, R13 the next entry of rows, R8 the next
// out, R14 the rows left, R11 len(q) in bytes (a row's length and
// stride), R9 those bytes in whole groups of four, R10 the offset into
// a row; AX, BX, CX and DX point at the rows of a step, X0-X3 are
// their accumulators.
//
// func gatherSSE(dot bool, q, data []float32, rows []uint32, out []float32)
TEXT ·gatherSSE(SB), NOSPLIT, $0-104
	MOVQ q_base+8(FP), SI
	MOVQ q_len+16(FP), R11
	SHLQ $2, R11 // bytes per row, read and stepped
	MOVQ R11, R9
	ANDQ $-16, R9 // bytes in whole groups of four dimensions
	MOVQ data_base+32(FP), DI
	MOVQ rows_base+56(FP), R13
	MOVQ out_base+80(FP), R8
	MOVQ out_len+88(FP), R14

four:
	CMPQ R14, $4
	JLT  one
	ROWPTR(AX, 0)
	ROWPTR(BX, 4)
	ROWPTR(CX, 8)
	ROWPTR(DX, 12)
	ADDQ $16, R13
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  R10, R10
	CMPB  dot+0(FP), $0
	JNE   dot4

l2four:
	CMPQ R10, R9
	JGE  l2tail4
	MOVUPS (SI)(R10*1), X4
	L2ROW(AX, X0)
	L2ROW(BX, X1)
	L2ROW(CX, X2)
	L2ROW(DX, X3)
	ADDQ $16, R10
	JMP  l2four

l2tail4:
	CMPQ R10, R11
	JGE  sum4
	L2TAIL(AX, X0)
	L2TAIL(BX, X1)
	L2TAIL(CX, X2)
	L2TAIL(DX, X3)
	ADDQ $4, R10
	JMP  l2tail4

dot4:
	CMPQ R10, R9
	JGE  dottail4
	MOVUPS (SI)(R10*1), X4
	DOTROW(AX, X0)
	DOTROW(BX, X1)
	DOTROW(CX, X2)
	DOTROW(DX, X3)
	ADDQ $16, R10
	JMP  dot4

dottail4:
	CMPQ R10, R11
	JGE  sum4
	DOTTAIL(AX, X0)
	DOTTAIL(BX, X1)
	DOTTAIL(CX, X2)
	DOTTAIL(DX, X3)
	ADDQ $4, R10
	JMP  dottail4

sum4:
	HSUM(X0)
	HSUM(X1)
	HSUM(X2)
	HSUM(X3)
	MOVSS X0, 0(R8)
	MOVSS X1, 4(R8)
	MOVSS X2, 8(R8)
	MOVSS X3, 12(R8)
	ADDQ  $16, R8
	SUBQ  $4, R14
	JMP   four

// The last len(out)%4 rows, one at a time.
one:
	TESTQ R14, R14
	JEQ   done
	ROWPTR(AX, 0)
	ADDQ  $4, R13
	XORPS X0, X0
	XORQ  R10, R10
	CMPB  dot+0(FP), $0
	JNE   dot1

l2one:
	CMPQ R10, R9
	JGE  l2tail1
	MOVUPS (SI)(R10*1), X4
	L2ROW(AX, X0)
	ADDQ $16, R10
	JMP  l2one

l2tail1:
	CMPQ R10, R11
	JGE  sum1
	L2TAIL(AX, X0)
	ADDQ $4, R10
	JMP  l2tail1

dot1:
	CMPQ R10, R9
	JGE  dottail1
	MOVUPS (SI)(R10*1), X4
	DOTROW(AX, X0)
	ADDQ $16, R10
	JMP  dot1

dottail1:
	CMPQ R10, R11
	JGE  sum1
	DOTTAIL(AX, X0)
	ADDQ $4, R10
	JMP  dottail1

sum1:
	HSUM(X0)
	MOVSS X0, 0(R8)
	ADDQ  $4, R8
	DECQ  R14
	JMP   one

done:
	RET
