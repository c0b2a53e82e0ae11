#include "textflag.h"

// func prefetchW(b []byte)
TEXT ·prefetchW(SB), NOSPLIT, $0-24
	MOVQ b_base+0(FP), AX
	MOVQ b_len+8(FP), CX
	TESTQ CX, CX
	JLE done
loop:
	// PREFETCHW (AX), 0F 0D /1: the assembler has no mnemonic for it.
	BYTE $0x0F; BYTE $0x0D; BYTE $0x08
	ADDQ $64, AX
	SUBQ $64, CX
	JG loop
done:
	RET
