package u256

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

func mod256(b *big.Int) *big.Int { return new(big.Int).Mod(b, two256) }

// Generate implements quick.Generator so quickcheck produces interesting
// values: a mix of uniform random limbs, small numbers, and boundary values.
func (Int) Generate(r *rand.Rand, _ int) interface{} {
	switch r.Intn(6) {
	case 0:
		return NewUint64(r.Uint64() % 100)
	case 1:
		return Int{}
	case 2:
		return Max
	case 3:
		return Int{r.Uint64(), 0, 0, 0}
	default:
		return Int{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	}
}

func qcfg(t *testing.T) *quick.Config {
	t.Helper()
	return &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(42))}
}

func TestRoundTripBig(t *testing.T) {
	f := func(x Int) bool {
		y := FromBig(x.ToBig())
		return y.Eq(&x)
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestRoundTripBytes(t *testing.T) {
	f := func(x Int) bool {
		full := x.Bytes32()
		y := FromBytes(full[:])
		min := FromBytes(x.Bytes())
		return y.Eq(&x) && min.Eq(&x)
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

// TestFromBytesAgainstBig checks every input length the fast paths split
// on (empty, one limb, partial, full word, over-long) against math/big,
// whose SetBytes result truncated to 256 bits is the EVM word semantics.
func TestFromBytesAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 200; trial++ {
			b := make([]byte, n)
			r.Read(b)
			if trial%4 == 0 && n > 0 {
				b[0] = 0 // leading zero bytes must not shift the value
			}
			got := FromBytes(b)
			want := mod256(new(big.Int).SetBytes(b))
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("FromBytes(%x) = %s, want %s", b, got.Hex(), want.Text(16))
			}
		}
	}
}

func TestRoundTripHex(t *testing.T) {
	f := func(x Int) bool {
		y, err := FromHex(x.Hex())
		return err == nil && y.Eq(&x)
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestAddSubMulAgainstBig(t *testing.T) {
	type binOp struct {
		name string
		u    func(z, x, y *Int) *Int
		b    func(x, y *big.Int) *big.Int
	}
	ops := []binOp{
		{"add", (*Int).Add, func(x, y *big.Int) *big.Int { return mod256(new(big.Int).Add(x, y)) }},
		{"sub", (*Int).Sub, func(x, y *big.Int) *big.Int { return mod256(new(big.Int).Sub(x, y)) }},
		{"mul", (*Int).Mul, func(x, y *big.Int) *big.Int { return mod256(new(big.Int).Mul(x, y)) }},
		{"and", (*Int).And, func(x, y *big.Int) *big.Int { return new(big.Int).And(x, y) }},
		{"or", (*Int).Or, func(x, y *big.Int) *big.Int { return new(big.Int).Or(x, y) }},
		{"xor", (*Int).Xor, func(x, y *big.Int) *big.Int { return new(big.Int).Xor(x, y) }},
	}
	for _, op := range ops {
		op := op
		t.Run(op.name, func(t *testing.T) {
			f := func(x, y Int) bool {
				var z Int
				op.u(&z, &x, &y)
				want := op.b(x.ToBig(), y.ToBig())
				return z.ToBig().Cmp(want) == 0
			}
			if err := quick.Check(f, qcfg(t)); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestDivModAgainstBig(t *testing.T) {
	f := func(x, y Int) bool {
		var q, r Int
		q.Div(&x, &y)
		r.Mod(&x, &y)
		if y.IsZero() {
			return q.IsZero() && r.IsZero()
		}
		wq := new(big.Int).Div(x.ToBig(), y.ToBig())
		wr := new(big.Int).Mod(x.ToBig(), y.ToBig())
		return q.ToBig().Cmp(wq) == 0 && r.ToBig().Cmp(wr) == 0
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

// toSigned interprets a 256-bit word as a signed big.Int.
func toSigned(x *Int) *big.Int {
	b := x.ToBig()
	if x.Sign() < 0 {
		b.Sub(b, two256)
	}
	return b
}

func TestSDivSModAgainstBig(t *testing.T) {
	f := func(x, y Int) bool {
		var q, r Int
		q.SDiv(&x, &y)
		r.SMod(&x, &y)
		if y.IsZero() {
			return q.IsZero() && r.IsZero()
		}
		sx, sy := toSigned(&x), toSigned(&y)
		wq := new(big.Int).Quo(sx, sy) // truncated division, like the EVM
		wr := new(big.Int).Rem(sx, sy)
		return q.ToBig().Cmp(mod256(wq)) == 0 && r.ToBig().Cmp(mod256(wr)) == 0
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestAddModMulModAgainstBig(t *testing.T) {
	f := func(x, y, m Int) bool {
		var a, u Int
		a.AddMod(&x, &y, &m)
		u.MulMod(&x, &y, &m)
		if m.IsZero() {
			return a.IsZero() && u.IsZero()
		}
		wa := new(big.Int).Mod(new(big.Int).Add(x.ToBig(), y.ToBig()), m.ToBig())
		wm := new(big.Int).Mod(new(big.Int).Mul(x.ToBig(), y.ToBig()), m.ToBig())
		return a.ToBig().Cmp(wa) == 0 && u.ToBig().Cmp(wm) == 0
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestExpAgainstBig(t *testing.T) {
	f := func(base Int, e uint8) bool {
		exp := NewUint64(uint64(e))
		var z Int
		z.Exp(&base, &exp)
		want := new(big.Int).Exp(base.ToBig(), exp.ToBig(), two256)
		return z.ToBig().Cmp(want) == 0
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestCompareAgainstBig(t *testing.T) {
	f := func(x, y Int) bool {
		bx, by := x.ToBig(), y.ToBig()
		sx, sy := toSigned(&x), toSigned(&y)
		return x.Lt(&y) == (bx.Cmp(by) < 0) &&
			x.Gt(&y) == (bx.Cmp(by) > 0) &&
			x.Eq(&y) == (bx.Cmp(by) == 0) &&
			x.Slt(&y) == (sx.Cmp(sy) < 0) &&
			x.Sgt(&y) == (sx.Cmp(sy) > 0)
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestShiftsAgainstBig(t *testing.T) {
	f := func(x Int, nRaw uint16) bool {
		n := uint(nRaw) % 300 // include shifts >= 256
		var shl, shr, sar Int
		shl.Shl(&x, n)
		shr.Shr(&x, n)
		sar.Sar(&x, n)
		wantShl := mod256(new(big.Int).Lsh(x.ToBig(), n))
		wantShr := new(big.Int).Rsh(x.ToBig(), n)
		sx := toSigned(&x)
		wantSar := mod256(new(big.Int).Rsh(sx, n)) // big.Rsh on negatives is arithmetic
		return shl.ToBig().Cmp(wantShl) == 0 &&
			shr.ToBig().Cmp(wantShr) == 0 &&
			sar.ToBig().Cmp(wantSar) == 0
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		b    uint64
		x    string
		want string
	}{
		{0, "0x7f", "0x7f"},
		{0, "0x80", "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff80"},
		{0, "0x1234", "0x34"},
		{1, "0x8034", "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff8034"},
		{1, "0x7f34", "0x7f34"},
		{31, "0xff", "0xff"},
		{100, "0xff", "0xff"},
	}
	for _, tc := range cases {
		b := NewUint64(tc.b)
		x := MustHex(tc.x)
		var z Int
		z.SignExtend(&b, &x)
		if z.Hex() != tc.want {
			t.Errorf("SignExtend(%d, %s) = %s, want %s", tc.b, tc.x, z.Hex(), tc.want)
		}
	}
}

func TestSignExtendAgainstBig(t *testing.T) {
	f := func(x Int, bRaw uint8) bool {
		b := NewUint64(uint64(bRaw % 40))
		var z Int
		z.SignExtend(&b, &x)
		// Reference: take low (b+1)*8 bits, sign extend.
		if b[0] >= 31 {
			return z.Eq(&x)
		}
		bitsN := (b[0] + 1) * 8
		low := new(big.Int).Mod(x.ToBig(), new(big.Int).Lsh(big.NewInt(1), uint(bitsN)))
		if low.Bit(int(bitsN-1)) == 1 {
			low.Sub(low, new(big.Int).Lsh(big.NewInt(1), uint(bitsN)))
		}
		return z.ToBig().Cmp(mod256(low)) == 0
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestByte(t *testing.T) {
	x := MustHex("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
	for i := uint64(0); i < 32; i++ {
		n := NewUint64(i)
		var z Int
		z.Byte(&n, &x)
		if z.Uint64() != i+1 {
			t.Errorf("Byte(%d) = %d, want %d", i, z.Uint64(), i+1)
		}
	}
	n := NewUint64(32)
	var z Int
	z.Byte(&n, &x)
	if !z.IsZero() {
		t.Errorf("Byte(32) = %s, want 0", z.Hex())
	}
}

func TestNotNeg(t *testing.T) {
	f := func(x Int) bool {
		var not, neg, sum Int
		not.Not(&x)
		neg.Neg(&x)
		// -x == ^x + 1 (mod 2^256)
		sum.Add(&not, &One)
		return sum.Eq(&neg)
	}
	if err := quick.Check(f, qcfg(t)); err != nil {
		t.Error(err)
	}
}

func TestOverflowFlags(t *testing.T) {
	var z Int
	if of := z.AddOverflow(&Max, &One); !of || !z.IsZero() {
		t.Errorf("Max+1: of=%v z=%s", of, z.Hex())
	}
	if of := z.AddOverflow(&One, &One); of || z.Uint64() != 2 {
		t.Errorf("1+1: of=%v z=%s", of, z.Hex())
	}
	if uf := z.SubUnderflow(&Zero, &One); !uf || !z.Eq(&Max) {
		t.Errorf("0-1: uf=%v z=%s", uf, z.Hex())
	}
	if uf := z.SubUnderflow(&One, &One); uf || !z.IsZero() {
		t.Errorf("1-1: uf=%v z=%s", uf, z.Hex())
	}
}

func TestFromHexErrors(t *testing.T) {
	bad := []string{"", "0x", "0xzz", "0x" + string(make([]byte, 100)), "ghij"}
	for _, s := range bad {
		if _, err := FromHex(s); err == nil {
			t.Errorf("FromHex(%q): expected error", s)
		}
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct {
		x    Int
		want int
	}{
		{Zero, 0},
		{One, 1},
		{NewUint64(255), 8},
		{Max, 256},
		{Int{0, 1, 0, 0}, 65},
	}
	for _, tc := range cases {
		if got := tc.x.BitLen(); got != tc.want {
			t.Errorf("BitLen(%s) = %d, want %d", tc.x.Hex(), got, tc.want)
		}
	}
}

func TestHexFormatting(t *testing.T) {
	cases := []struct {
		in   Int
		want string
	}{
		{Zero, "0x0"},
		{One, "0x1"},
		{NewUint64(0xdeadbeef), "0xdeadbeef"},
		{Max, "0x" + strings64f()},
	}
	for _, tc := range cases {
		if got := tc.in.Hex(); got != tc.want {
			t.Errorf("Hex() = %s, want %s", got, tc.want)
		}
	}
}

func strings64f() string {
	b := make([]byte, 64)
	for i := range b {
		b[i] = 'f'
	}
	return string(b)
}

func BenchmarkAdd(b *testing.B) {
	x, y := Max, NewUint64(12345)
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Add(&x, &y)
	}
	_ = z
}

func BenchmarkMul(b *testing.B) {
	x := MustHex("0x123456789abcdef0fedcba9876543210ffffffffffffffff0123456789abcdef")
	y := MustHex("0xdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef")
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
	_ = z
}

func BenchmarkDiv(b *testing.B) {
	x := MustHex("0x123456789abcdef0fedcba9876543210ffffffffffffffff0123456789abcdef")
	y := MustHex("0xdeadbeefdeadbeef")
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Div(&x, &y)
	}
	_ = z
}
