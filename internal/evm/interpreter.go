package evm

import (
	"errors"

	"dmvcc/internal/keccak"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// frame is one call frame: code, I/O, operand stack, and scratch memory.
type frame struct {
	code      []byte
	input     []byte
	addr      types.Address // storage/context address
	caller    types.Address
	value     u256.Int
	gas       uint64
	pc        uint64
	stack     *stack
	mem       memory
	jumpdests JumpDestSet
	// hookAt is the contract's hook-point table (one flag byte per pc), or
	// nil to run the step hook before every instruction.
	hookAt []uint8
}

// useGas deducts amount from the frame's gas, reporting false on exhaustion.
func (f *frame) useGas(amount uint64) bool {
	if f.gas < amount {
		f.gas = 0
		return false
	}
	f.gas -= amount
	return true
}

// memCharge expands memory to cover [offset, offset+length) and charges the
// quadratic expansion cost.
func (f *frame) memCharge(offset, length uint64) error {
	if length == 0 {
		return nil
	}
	if offset > 1<<32 || length > 1<<32 {
		return ErrOutOfGas
	}
	newWords := wordsForRange(offset, length)
	curWords := f.mem.size() / 32
	if newWords > curWords {
		delta := memoryGas(newWords) - memoryGas(curWords)
		if !f.useGas(delta) {
			return ErrOutOfGas
		}
		f.mem.expand(newWords)
	}
	return nil
}

// popUint pops a stack word that must fit in uint64 (offsets, lengths,
// gas). Out-of-range values exhaust gas, like Ethereum's huge-offset rule.
func (f *frame) popUint() (uint64, error) {
	v, err := f.stack.pop()
	if err != nil {
		return 0, err
	}
	if !v.IsUint64() {
		return 0, ErrOutOfGas
	}
	return v.Uint64(), nil
}

// run executes the frame to completion.
func (e *EVM) run(f *frame) ([]byte, error) {
	for {
		if f.pc >= uint64(len(f.code)) {
			return nil, nil // implicit STOP
		}
		op := Opcode(f.code[f.pc])
		if e.hook != nil {
			var flags uint8
			if f.hookAt != nil {
				flags = f.hookAt[f.pc]
			}
			if flags != 0 || f.hookAt == nil {
				if err := e.hook(f.addr, e.depth, f.pc, op, f.gas, flags); err != nil {
					return nil, err
				}
			}
		}
		if !op.Valid() {
			return nil, ErrInvalidOpcode
		}
		if g, ok := constantGas(op); ok {
			if !f.useGas(g) {
				return nil, ErrOutOfGas
			}
		}

		switch {
		case op.IsPush():
			n := op.PushBytes()
			end := f.pc + 1 + uint64(n)
			var v u256.Int
			if end <= uint64(len(f.code)) {
				v = u256.FromBytes(f.code[f.pc+1 : end])
			} else {
				// Immediate truncated by the end of code: zero-extended.
				v = u256.FromBytes(padRight(f.code[f.pc+1:], n))
			}
			if err := f.stack.push(&v); err != nil {
				return nil, err
			}
			f.pc = end
			continue
		case op.IsDup():
			if err := f.stack.dup(int(op-DUP1) + 1); err != nil {
				return nil, err
			}
		case op.IsSwap():
			if err := f.stack.swap(int(op-SWAP1) + 1); err != nil {
				return nil, err
			}
		case op.IsLog():
			if err := e.opLog(f, int(op-LOG0)); err != nil {
				return nil, err
			}
		default:
			done, ret, err := e.step(f, op)
			if err != nil {
				return ret, err
			}
			if done {
				return ret, nil
			}
			if op == JUMP || op == JUMPI {
				continue // pc set by the jump
			}
		}
		f.pc++
	}
}

// step executes a single non-push/dup/swap/log opcode. done=true means the
// frame finished normally with ret.
func (e *EVM) step(f *frame, op Opcode) (done bool, ret []byte, err error) {
	switch op {
	case STOP:
		return true, nil, nil

	case ADD, MUL, SUB, DIV, SDIV, MOD, SMOD, EXP, SIGNEXTEND,
		LT, GT, SLT, SGT, EQ, AND, OR, XOR, BYTE, SHL, SHR, SAR:
		return false, nil, e.binOp(f, op)

	case ADDMOD, MULMOD:
		x, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		y, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		m, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		var z u256.Int
		if op == ADDMOD {
			z.AddMod(&x, &y, &m)
		} else {
			z.MulMod(&x, &y, &m)
		}
		return false, nil, f.stack.push(&z)

	case ISZERO, NOT:
		x, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		var z u256.Int
		if op == ISZERO {
			if x.IsZero() {
				z = u256.One
			}
		} else {
			z.Not(&x)
		}
		return false, nil, f.stack.push(&z)

	case SHA3:
		off, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		length, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		words := (length + 31) / 32
		if !f.useGas(GasSha3 + GasSha3Word*words) {
			return false, nil, ErrOutOfGas
		}
		if err := f.memCharge(off, length); err != nil {
			return false, nil, err
		}
		h := keccak.Sum256(f.mem.view(off, length))
		v := u256.FromBytes(h[:])
		return false, nil, f.stack.push(&v)

	case ADDRESS:
		v := f.addr.Word()
		return false, nil, f.stack.push(&v)
	case ORIGIN:
		v := e.tx.Origin.Word()
		return false, nil, f.stack.push(&v)
	case CALLER:
		v := f.caller.Word()
		return false, nil, f.stack.push(&v)
	case CALLVALUE:
		v := f.value
		return false, nil, f.stack.push(&v)
	case COINBASE:
		v := e.block.Coinbase.Word()
		return false, nil, f.stack.push(&v)
	case TIMESTAMP:
		v := u256.NewUint64(e.block.Timestamp)
		return false, nil, f.stack.push(&v)
	case NUMBER:
		v := u256.NewUint64(e.block.Number)
		return false, nil, f.stack.push(&v)
	case GASLIMIT:
		v := u256.NewUint64(e.block.GasLimit)
		return false, nil, f.stack.push(&v)
	case CHAINID:
		v := u256.NewUint64(e.block.ChainID)
		return false, nil, f.stack.push(&v)
	case GAS:
		v := u256.NewUint64(f.gas)
		return false, nil, f.stack.push(&v)
	case PC:
		v := u256.NewUint64(f.pc)
		return false, nil, f.stack.push(&v)
	case MSIZE:
		v := u256.NewUint64(f.mem.size())
		return false, nil, f.stack.push(&v)

	case BLOCKHASH:
		n, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		// Deterministic pseudo block hash derived from the number.
		b := n.Bytes32()
		h := keccak.Sum256(b[:])
		v := u256.FromBytes(h[:])
		return false, nil, f.stack.push(&v)

	case BALANCE:
		a, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		bal, err := e.state.GetBalance(types.AddressFromWord(a))
		if err != nil {
			return false, nil, err
		}
		return false, nil, f.stack.push(&bal)
	case SELFBALANCE:
		bal, err := e.state.GetBalance(f.addr)
		if err != nil {
			return false, nil, err
		}
		return false, nil, f.stack.push(&bal)

	case CALLDATALOAD:
		off, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		var chunk []byte
		if off.IsUint64() && off.Uint64() < uint64(len(f.input)) {
			chunk = f.input[off.Uint64():]
		}
		v := u256.FromBytes(padRight(chunk, 32))
		return false, nil, f.stack.push(&v)
	case CALLDATASIZE:
		v := u256.NewUint64(uint64(len(f.input)))
		return false, nil, f.stack.push(&v)
	case CODESIZE:
		v := u256.NewUint64(uint64(len(f.code)))
		return false, nil, f.stack.push(&v)
	case RETURNDATASIZE:
		v := u256.NewUint64(uint64(len(e.returnData)))
		return false, nil, f.stack.push(&v)

	case CALLDATACOPY:
		return false, nil, e.opCopy(f, f.input)
	case CODECOPY:
		return false, nil, e.opCopy(f, f.code)
	case RETURNDATACOPY:
		return false, nil, e.opCopy(f, e.returnData)

	case POP:
		_, err := f.stack.pop()
		return false, nil, err

	case MLOAD:
		off, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		if !f.useGas(GasFastestStep) {
			return false, nil, ErrOutOfGas
		}
		if err := f.memCharge(off, 32); err != nil {
			return false, nil, err
		}
		v := f.mem.getWord(off)
		return false, nil, f.stack.push(&v)
	case MSTORE:
		off, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		v, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		if !f.useGas(GasFastestStep) {
			return false, nil, ErrOutOfGas
		}
		if err := f.memCharge(off, 32); err != nil {
			return false, nil, err
		}
		f.mem.setWord(off, &v)
		return false, nil, nil
	case MSTORE8:
		off, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		v, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		if !f.useGas(GasFastestStep) {
			return false, nil, ErrOutOfGas
		}
		if err := f.memCharge(off, 1); err != nil {
			return false, nil, err
		}
		f.mem.setByte(off, byte(v.Uint64()))
		return false, nil, nil

	case SLOAD:
		key, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		v, err := e.state.GetState(f.addr, types.HashFromWord(key))
		if err != nil {
			return false, nil, err
		}
		return false, nil, f.stack.push(&v)
	case SSTORE:
		key, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		v, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, e.state.SetState(f.addr, types.HashFromWord(key), v)

	case JUMP:
		dest, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, f.jumpTo(&dest)
	case JUMPI:
		dest, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		cond, err := f.stack.pop()
		if err != nil {
			return false, nil, err
		}
		if cond.IsZero() {
			f.pc++
			return false, nil, nil
		}
		return false, nil, f.jumpTo(&dest)
	case JUMPDEST:
		return false, nil, nil

	case CALL:
		return false, nil, e.opCall(f)

	case RETURN:
		off, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		length, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		if err := f.memCharge(off, length); err != nil {
			return false, nil, err
		}
		out := make([]byte, length)
		copy(out, f.mem.view(off, length))
		return true, out, nil
	case REVERT:
		off, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		length, err := f.popUint()
		if err != nil {
			return false, nil, err
		}
		if err := f.memCharge(off, length); err != nil {
			return false, nil, err
		}
		out := make([]byte, length)
		copy(out, f.mem.view(off, length))
		return false, out, &RevertError{Data: out}
	case INVALID:
		return false, nil, ErrInvalidOpcode

	default:
		return false, nil, ErrInvalidOpcode
	}
}

// binOp executes a two-operand arithmetic/comparison opcode.
func (e *EVM) binOp(f *frame, op Opcode) error {
	x, err := f.stack.pop()
	if err != nil {
		return err
	}
	y, err := f.stack.pop()
	if err != nil {
		return err
	}
	var z u256.Int
	switch op {
	case ADD:
		z.Add(&x, &y)
	case MUL:
		z.Mul(&x, &y)
	case SUB:
		z.Sub(&x, &y)
	case DIV:
		z.Div(&x, &y)
	case SDIV:
		z.SDiv(&x, &y)
	case MOD:
		z.Mod(&x, &y)
	case SMOD:
		z.SMod(&x, &y)
	case EXP:
		byteLen := (y.BitLen() + 7) / 8
		if !f.useGas(GasExp + GasExpByte*uint64(byteLen)) {
			return ErrOutOfGas
		}
		z.Exp(&x, &y)
	case SIGNEXTEND:
		z.SignExtend(&x, &y)
	case LT:
		if x.Lt(&y) {
			z = u256.One
		}
	case GT:
		if x.Gt(&y) {
			z = u256.One
		}
	case SLT:
		if x.Slt(&y) {
			z = u256.One
		}
	case SGT:
		if x.Sgt(&y) {
			z = u256.One
		}
	case EQ:
		if x.Eq(&y) {
			z = u256.One
		}
	case AND:
		z.And(&x, &y)
	case OR:
		z.Or(&x, &y)
	case XOR:
		z.Xor(&x, &y)
	case BYTE:
		z.Byte(&x, &y)
	case SHL:
		if x.IsUint64() && x.Uint64() < 256 {
			z.Shl(&y, uint(x.Uint64()))
		}
	case SHR:
		if x.IsUint64() && x.Uint64() < 256 {
			z.Shr(&y, uint(x.Uint64()))
		}
	case SAR:
		if x.IsUint64() && x.Uint64() < 256 {
			z.Sar(&y, uint(x.Uint64()))
		} else if y.Sign() < 0 {
			z = u256.Max
		}
	}
	return f.stack.push(&z)
}

// jumpTo validates and performs a jump.
func (f *frame) jumpTo(dest *u256.Int) error {
	if !dest.IsUint64() || !f.jumpdests.Has(dest.Uint64()) {
		return ErrBadJump
	}
	f.pc = dest.Uint64()
	return nil
}

// opCopy implements CALLDATACOPY / CODECOPY / RETURNDATACOPY.
func (e *EVM) opCopy(f *frame, src []byte) error {
	memOff, err := f.popUint()
	if err != nil {
		return err
	}
	srcOff, err := f.popUint()
	if err != nil {
		return err
	}
	length, err := f.popUint()
	if err != nil {
		return err
	}
	words := (length + 31) / 32
	if !f.useGas(GasFastestStep + GasCopyWord*words) {
		return ErrOutOfGas
	}
	if err := f.memCharge(memOff, length); err != nil {
		return err
	}
	var chunk []byte
	if srcOff < uint64(len(src)) {
		chunk = src[srcOff:]
	}
	f.mem.setCopy(memOff, length, chunk)
	return nil
}

// opLog implements LOG0..LOG4.
func (e *EVM) opLog(f *frame, topicCount int) error {
	off, err := f.popUint()
	if err != nil {
		return err
	}
	length, err := f.popUint()
	if err != nil {
		return err
	}
	topics := make([]types.Hash, topicCount)
	for i := 0; i < topicCount; i++ {
		t, err := f.stack.pop()
		if err != nil {
			return err
		}
		topics[i] = types.HashFromWord(t)
	}
	if !f.useGas(GasLog + GasLogTopic*uint64(topicCount) + GasLogByte*length) {
		return ErrOutOfGas
	}
	if err := f.memCharge(off, length); err != nil {
		return err
	}
	data := make([]byte, length)
	copy(data, f.mem.view(off, length))
	e.logs = append(e.logs, types.Log{Address: f.addr, Topics: topics, Data: data})
	return nil
}

// opCall implements the CALL opcode.
func (e *EVM) opCall(f *frame) error {
	gasReq, err := f.stack.pop()
	if err != nil {
		return err
	}
	toWord, err := f.stack.pop()
	if err != nil {
		return err
	}
	value, err := f.stack.pop()
	if err != nil {
		return err
	}
	inOff, err := f.popUint()
	if err != nil {
		return err
	}
	inLen, err := f.popUint()
	if err != nil {
		return err
	}
	outOff, err := f.popUint()
	if err != nil {
		return err
	}
	outLen, err := f.popUint()
	if err != nil {
		return err
	}

	cost := GasCall
	if !value.IsZero() {
		cost += GasCallValue
	}
	if !f.useGas(cost) {
		return ErrOutOfGas
	}
	if err := f.memCharge(inOff, inLen); err != nil {
		return err
	}
	if err := f.memCharge(outOff, outLen); err != nil {
		return err
	}

	// 63/64 rule: keep a sliver of gas in the caller.
	avail := f.gas - f.gas/64
	childGas := avail
	if gasReq.IsUint64() && gasReq.Uint64() < avail {
		childGas = gasReq.Uint64()
	}
	if !f.useGas(childGas) {
		return ErrOutOfGas
	}
	if !value.IsZero() {
		childGas += GasCallStipend
	}

	input := make([]byte, inLen)
	copy(input, f.mem.view(inOff, inLen))
	to := types.AddressFromWord(toWord)

	ret, gasLeft, callErr := e.Call(f.addr, to, input, childGas, &value)
	e.returnData = ret

	var success u256.Int
	switch {
	case callErr == nil:
		success = u256.One
	case IsRevert(callErr) || errors.Is(callErr, ErrInsufficientBalance) || errors.Is(callErr, ErrCallDepth):
		// failed call: success stays 0, parent continues
	case errors.Is(callErr, ErrAborted):
		return callErr
	default:
		// Callee exceptional halt consumed its gas; parent continues.
		gasLeft = 0
	}
	f.gas += gasLeft
	if outLen > 0 {
		f.mem.setCopy(outOff, outLen, ret)
	}
	return f.stack.push(&success)
}

// padRight returns b zero-padded on the right to length n.
func padRight(b []byte, n int) []byte {
	if len(b) >= n {
		return b[:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
