// Package evm implements a from-scratch Ethereum Virtual Machine sufficient
// for the paper's workloads: 256-bit stack machine, memory, storage, gas
// metering, nested calls, logs, and reverts. All state accesses flow through
// the State interface so schedulers can intercept, buffer, block, and abort
// them — the integration point the paper adds to Geth.
package evm

import "fmt"

// Opcode is a single EVM instruction byte.
type Opcode byte

// Implemented opcodes. Values match the Ethereum specification so that
// standard tooling conventions (PUSH/DUP/SWAP ranges, JUMPDEST analysis)
// carry over.
const (
	STOP       Opcode = 0x00
	ADD        Opcode = 0x01
	MUL        Opcode = 0x02
	SUB        Opcode = 0x03
	DIV        Opcode = 0x04
	SDIV       Opcode = 0x05
	MOD        Opcode = 0x06
	SMOD       Opcode = 0x07
	ADDMOD     Opcode = 0x08
	MULMOD     Opcode = 0x09
	EXP        Opcode = 0x0a
	SIGNEXTEND Opcode = 0x0b

	LT     Opcode = 0x10
	GT     Opcode = 0x11
	SLT    Opcode = 0x12
	SGT    Opcode = 0x13
	EQ     Opcode = 0x14
	ISZERO Opcode = 0x15
	AND    Opcode = 0x16
	OR     Opcode = 0x17
	XOR    Opcode = 0x18
	NOT    Opcode = 0x19
	BYTE   Opcode = 0x1a
	SHL    Opcode = 0x1b
	SHR    Opcode = 0x1c
	SAR    Opcode = 0x1d

	SHA3 Opcode = 0x20

	ADDRESS        Opcode = 0x30
	BALANCE        Opcode = 0x31
	ORIGIN         Opcode = 0x32
	CALLER         Opcode = 0x33
	CALLVALUE      Opcode = 0x34
	CALLDATALOAD   Opcode = 0x35
	CALLDATASIZE   Opcode = 0x36
	CALLDATACOPY   Opcode = 0x37
	CODESIZE       Opcode = 0x38
	CODECOPY       Opcode = 0x39
	RETURNDATASIZE Opcode = 0x3d
	RETURNDATACOPY Opcode = 0x3e

	BLOCKHASH   Opcode = 0x40
	COINBASE    Opcode = 0x41
	TIMESTAMP   Opcode = 0x42
	NUMBER      Opcode = 0x43
	GASLIMIT    Opcode = 0x45
	CHAINID     Opcode = 0x46
	SELFBALANCE Opcode = 0x47

	POP      Opcode = 0x50
	MLOAD    Opcode = 0x51
	MSTORE   Opcode = 0x52
	MSTORE8  Opcode = 0x53
	SLOAD    Opcode = 0x54
	SSTORE   Opcode = 0x55
	JUMP     Opcode = 0x56
	JUMPI    Opcode = 0x57
	PC       Opcode = 0x58
	MSIZE    Opcode = 0x59
	GAS      Opcode = 0x5a
	JUMPDEST Opcode = 0x5b

	PUSH1  Opcode = 0x60
	PUSH32 Opcode = 0x7f
	DUP1   Opcode = 0x80
	DUP16  Opcode = 0x8f
	SWAP1  Opcode = 0x90
	SWAP16 Opcode = 0x9f

	LOG0 Opcode = 0xa0
	LOG1 Opcode = 0xa1
	LOG2 Opcode = 0xa2
	LOG3 Opcode = 0xa3
	LOG4 Opcode = 0xa4

	CALL    Opcode = 0xf1
	RETURN  Opcode = 0xf3
	REVERT  Opcode = 0xfd
	INVALID Opcode = 0xfe
)

// IsPush reports whether op is PUSH1..PUSH32.
func (op Opcode) IsPush() bool { return op >= PUSH1 && op <= PUSH32 }

// PushBytes returns the immediate size for PUSH opcodes (0 otherwise).
func (op Opcode) PushBytes() int {
	if !op.IsPush() {
		return 0
	}
	return int(op-PUSH1) + 1
}

// IsDup reports whether op is DUP1..DUP16.
func (op Opcode) IsDup() bool { return op >= DUP1 && op <= DUP16 }

// IsSwap reports whether op is SWAP1..SWAP16.
func (op Opcode) IsSwap() bool { return op >= SWAP1 && op <= SWAP16 }

// IsLog reports whether op is LOG0..LOG4.
func (op Opcode) IsLog() bool { return op >= LOG0 && op <= LOG4 }

// TouchesState reports whether the interpreter calls State while executing
// op: every such instruction is a hook point (HookState), which keeps a
// hook's view of the gas consumed exact at every state access.
func (op Opcode) TouchesState() bool {
	switch op {
	case SLOAD, SSTORE, BALANCE, SELFBALANCE, CALL:
		return true
	default:
		return false
	}
}

// Terminates reports whether op ends the current execution frame.
func (op Opcode) Terminates() bool {
	switch op {
	case STOP, RETURN, REVERT, INVALID:
		return true
	default:
		return false
	}
}

// Abortable reports whether op can deterministically abort a transaction
// (the paper's notion used to place release points). REVERT and INVALID
// abort explicitly; CALL can fail on insufficient balance and propagate a
// callee revert.
func (op Opcode) Abortable() bool {
	switch op {
	case REVERT, INVALID, CALL:
		return true
	default:
		return false
	}
}

var opNames = map[Opcode]string{
	STOP: "STOP", ADD: "ADD", MUL: "MUL", SUB: "SUB", DIV: "DIV", SDIV: "SDIV",
	MOD: "MOD", SMOD: "SMOD", ADDMOD: "ADDMOD", MULMOD: "MULMOD", EXP: "EXP",
	SIGNEXTEND: "SIGNEXTEND", LT: "LT", GT: "GT", SLT: "SLT", SGT: "SGT",
	EQ: "EQ", ISZERO: "ISZERO", AND: "AND", OR: "OR", XOR: "XOR", NOT: "NOT",
	BYTE: "BYTE", SHL: "SHL", SHR: "SHR", SAR: "SAR", SHA3: "SHA3",
	ADDRESS: "ADDRESS", BALANCE: "BALANCE", ORIGIN: "ORIGIN", CALLER: "CALLER",
	CALLVALUE: "CALLVALUE", CALLDATALOAD: "CALLDATALOAD",
	CALLDATASIZE: "CALLDATASIZE", CALLDATACOPY: "CALLDATACOPY",
	CODESIZE: "CODESIZE", CODECOPY: "CODECOPY",
	RETURNDATASIZE: "RETURNDATASIZE", RETURNDATACOPY: "RETURNDATACOPY",
	BLOCKHASH: "BLOCKHASH", COINBASE: "COINBASE", TIMESTAMP: "TIMESTAMP",
	NUMBER: "NUMBER", GASLIMIT: "GASLIMIT", CHAINID: "CHAINID",
	SELFBALANCE: "SELFBALANCE", POP: "POP", MLOAD: "MLOAD", MSTORE: "MSTORE",
	MSTORE8: "MSTORE8", SLOAD: "SLOAD", SSTORE: "SSTORE", JUMP: "JUMP",
	JUMPI: "JUMPI", PC: "PC", MSIZE: "MSIZE", GAS: "GAS", JUMPDEST: "JUMPDEST",
	LOG0: "LOG0", LOG1: "LOG1", LOG2: "LOG2", LOG3: "LOG3", LOG4: "LOG4",
	CALL: "CALL", RETURN: "RETURN", REVERT: "REVERT", INVALID: "INVALID",
}

// String returns the assembler mnemonic.
func (op Opcode) String() string {
	if name, ok := opNames[op]; ok {
		return name
	}
	if op.IsPush() {
		return fmt.Sprintf("PUSH%d", op.PushBytes())
	}
	if op.IsDup() {
		return fmt.Sprintf("DUP%d", int(op-DUP1)+1)
	}
	if op.IsSwap() {
		return fmt.Sprintf("SWAP%d", int(op-SWAP1)+1)
	}
	return fmt.Sprintf("op(0x%02x)", byte(op))
}

// validOps is the per-opcode validity table, precomputed so the
// per-instruction check in the interpreter is an array load instead of a
// map lookup.
var validOps = func() (t [256]bool) {
	for i := 0; i < 256; i++ {
		op := Opcode(i)
		_, named := opNames[op]
		t[i] = named || op.IsPush() || op.IsDup() || op.IsSwap()
	}
	return t
}()

// Valid reports whether op is implemented by this VM.
func (op Opcode) Valid() bool { return validOps[op] }

// JumpDestSet is a bitvector over code positions: bit pc is set iff pc is
// a valid JUMPDEST.
type JumpDestSet []uint64

// Has reports whether pc is a valid jump destination.
func (s JumpDestSet) Has(pc uint64) bool {
	w := pc / 64
	return w < uint64(len(s)) && s[w]&(1<<(pc%64)) != 0
}

// JumpDests scans code and returns its valid JUMPDEST positions, skipping
// PUSH immediates.
func JumpDests(code []byte) JumpDestSet {
	dests := make(JumpDestSet, (len(code)+63)/64)
	for pc := 0; pc < len(code); pc++ {
		op := Opcode(code[pc])
		if op == JUMPDEST {
			dests[pc/64] |= 1 << (pc % 64)
		}
		pc += op.PushBytes()
	}
	return dests
}
