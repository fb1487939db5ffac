package evm_test

import (
	"strings"
	"testing"

	"dmvcc/internal/asm"
	"dmvcc/internal/evm"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// TestOpcodeMatrix exercises every arithmetic/comparison opcode through the
// interpreter with word-level expected values.
func TestOpcodeMatrix(t *testing.T) {
	neg1 := u256.Max // -1 in two's complement
	var neg4 u256.Int
	{
		four := u256.NewUint64(4)
		neg4.Neg(&four)
	}
	cases := []struct {
		name string
		// operands pushed bottom-up; op consumes them top-down
		push []u256.Int
		op   evm.Opcode
		want u256.Int
	}{
		{"sdiv -4/2", []u256.Int{u256.NewUint64(2), neg4}, evm.SDIV, func() u256.Int {
			two := u256.NewUint64(2)
			var z u256.Int
			z.Neg(&two)
			return z
		}()},
		{"smod -4%3", []u256.Int{u256.NewUint64(3), neg4}, evm.SMOD, func() u256.Int {
			one := u256.One
			var z u256.Int
			z.Neg(&one)
			return z
		}()},
		{"slt -1<1", []u256.Int{u256.One, neg1}, evm.SLT, u256.One},
		{"sgt 1>-1", []u256.Int{neg1, u256.One}, evm.SGT, u256.One},
		{"signextend", []u256.Int{u256.NewUint64(0x80), u256.NewUint64(0)}, evm.SIGNEXTEND,
			u256.MustHex("0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff80")},
		{"byte 31", []u256.Int{u256.NewUint64(0xab), u256.NewUint64(31)}, evm.BYTE, u256.NewUint64(0xab)},
		{"not 0", []u256.Int{u256.Zero}, evm.NOT, u256.Max},
		{"sar -4>>1", []u256.Int{neg4, u256.NewUint64(1)}, evm.SAR, func() u256.Int {
			two := u256.NewUint64(2)
			var z u256.Int
			z.Neg(&two)
			return z
		}()},
		{"addmod", []u256.Int{u256.NewUint64(7), u256.NewUint64(5), u256.NewUint64(4)}, evm.ADDMOD, u256.NewUint64(2)},
		{"mulmod", []u256.Int{u256.NewUint64(7), u256.NewUint64(5), u256.NewUint64(4)}, evm.MULMOD, u256.NewUint64(6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := asm.New()
			for i := range tc.push {
				w := tc.push[i]
				a.PushWord(&w)
			}
			a.Op(tc.op)
			a.Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN)
			ret, _, err := runCode(t, a.MustBytes(), nil, 200_000)
			if err != nil {
				t.Fatal(err)
			}
			got := u256.FromBytes(ret)
			if !got.Eq(&tc.want) {
				t.Errorf("%s = %s, want %s", tc.name, got.Hex(), tc.want.Hex())
			}
		})
	}
}

func TestEnvOpcodesGasPCMsize(t *testing.T) {
	// GAS, PC and MSIZE return sensible values.
	code := asm.New().
		Push(1).Push(0).Op(evm.MSTORE). // msize becomes 32
		Op(evm.MSIZE).
		Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	ret, _, err := runCode(t, code, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 32)

	pcCode := asm.New().Op(evm.PC). // pc 0
					Push(0).Op(evm.MSTORE).
					Push(32).Push(0).Op(evm.RETURN).MustBytes()
	ret, _, err = runCode(t, pcCode, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 0)
}

func TestBalanceOpcodes(t *testing.T) {
	o, st := newEnv(t)
	o.SetBalance(contract, u256.NewUint64(5555))
	selfCode := asm.New().Op(evm.SELFBALANCE).
		Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN).MustBytes()
	if err := st.SetCode(contract, selfCode); err != nil {
		t.Fatal(err)
	}
	e := evm.New(st, testBlock(), evm.TxContext{})
	var zero u256.Int
	ret, _, err := e.Call(sender, contract, nil, 100_000, &zero)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 5555)

	// BALANCE of another account.
	senderWord := sender.Word()
	balCode := asm.New().PushWord(&senderWord).Op(evm.BALANCE).
		Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN).MustBytes()
	if err := st.SetCode(other, balCode); err != nil {
		t.Fatal(err)
	}
	ret, _, err = e.Call(sender, other, nil, 100_000, &zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := u256.FromBytes(ret); got.IsZero() {
		t.Error("BALANCE returned zero for a funded account")
	}
}

func TestCodecopy(t *testing.T) {
	code := asm.New().
		Push(8).Push(0).Push(0).Op(evm.CODECOPY). // copy first 8 code bytes
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	ret, _, err := runCode(t, code, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret) != 32 {
		t.Fatalf("ret len %d", len(ret))
	}
	for i := 0; i < 8; i++ {
		if ret[i] != code[i] {
			t.Fatalf("codecopy byte %d = %02x, want %02x", i, ret[i], code[i])
		}
	}
}

func TestOpcodeStringAndClasses(t *testing.T) {
	if evm.ADD.String() != "ADD" || evm.Opcode(0x62).String() != "PUSH3" {
		t.Error("opcode names")
	}
	if !strings.HasPrefix(evm.Opcode(0x85).String(), "DUP") {
		t.Error("dup name")
	}
	if !strings.HasPrefix(evm.Opcode(0x93).String(), "SWAP") {
		t.Error("swap name")
	}
	if evm.Opcode(0xef).Valid() {
		t.Error("0xef should be invalid")
	}
	if !evm.REVERT.Terminates() || evm.ADD.Terminates() {
		t.Error("Terminates classification")
	}
	if !evm.CALL.Abortable() || evm.SSTORE.Abortable() {
		t.Error("Abortable classification")
	}
	if got := evm.Opcode(0xef).String(); !strings.Contains(got, "0xef") {
		t.Errorf("unknown opcode string %q", got)
	}
}

func TestApplyTransactionUnderpriced(t *testing.T) {
	o, st := newEnv(t)
	tx := &types.Transaction{
		From:     sender,
		To:       other,
		Gas:      100, // below intrinsic
		GasPrice: u256.NewUint64(1),
	}
	rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, tx.Hash(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusOutOfGas || rcpt.GasUsed != 100 {
		t.Errorf("receipt %+v", rcpt)
	}
	if got := o.Nonce(sender); got != 1 {
		t.Errorf("nonce = %d (must bump even on intrinsic failure)", got)
	}
	if got := o.Balance(coinbase); got.Uint64() != 100 {
		t.Errorf("coinbase fee = %d", got.Uint64())
	}
}

func TestApplyTransactionCannotFund(t *testing.T) {
	o, st := newEnv(t)
	tx := &types.Transaction{
		From:  sender,
		To:    other,
		Value: u256.NewUint64(2_000_000_000), // more than the balance
		Gas:   21_000,
	}
	rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, tx.Hash(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusReverted {
		t.Errorf("status %s", rcpt.Status)
	}
	if got := o.Balance(other); !got.IsZero() {
		t.Error("unfunded transfer moved money")
	}
	if got := o.Nonce(sender); got != 1 {
		t.Errorf("nonce = %d", got)
	}
}

func TestApplyTransactionInvalidOpcodeConsumesGas(t *testing.T) {
	_, st := newEnv(t)
	if err := st.SetCode(contract, []byte{byte(evm.INVALID)}); err != nil {
		t.Fatal(err)
	}
	tx := &types.Transaction{
		From: sender,
		To:   contract,
		Gas:  60_000,
		Data: []byte{0x01},
	}
	rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, tx.Hash(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusOutOfGas {
		t.Errorf("status %s", rcpt.Status)
	}
	if rcpt.GasUsed != 60_000 {
		t.Errorf("gas used %d, want all 60000", rcpt.GasUsed)
	}
}
