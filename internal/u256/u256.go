// Package u256 implements fixed-size 256-bit unsigned integer arithmetic as
// used by the EVM word model. Values are represented as four 64-bit
// little-endian limbs. The API follows the math/big convention: methods take
// a receiver z used as the destination and return it, so operations can be
// chained and storage reused.
//
// Signed operations (SDiv, SMod, Slt, Sgt, Sar, SignExtend) interpret words
// as two's-complement, matching EVM semantics.
package u256

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Int is a 256-bit unsigned integer with little-endian 64-bit limbs:
// the represented value is z[0] + z[1]<<64 + z[2]<<128 + z[3]<<192.
type Int [4]uint64

// Common small constants. These are returned by value and safe to copy.
var (
	// Zero is the value 0.
	Zero = Int{}
	// One is the value 1.
	One = Int{1, 0, 0, 0}
	// Max is 2^256 - 1.
	Max = Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
)

// ErrBadHex reports a malformed hexadecimal literal passed to FromHex.
var ErrBadHex = errors.New("u256: malformed hex literal")

// NewUint64 returns a new Int holding the value v.
func NewUint64(v uint64) Int {
	return Int{v, 0, 0, 0}
}

// FromBytes interprets b as a big-endian unsigned integer. Inputs longer
// than 32 bytes keep only the low-order 32 bytes, matching EVM truncation.
func FromBytes(b []byte) Int {
	switch n := len(b); {
	case n == 32:
		// Full words (memory loads, hashes, SLOAD keys): four loads.
		return Int{
			binary.BigEndian.Uint64(b[24:32]),
			binary.BigEndian.Uint64(b[16:24]),
			binary.BigEndian.Uint64(b[8:16]),
			binary.BigEndian.Uint64(b[0:8]),
		}
	case n <= 8:
		// Small immediates (PUSH1..PUSH8): one limb.
		var limb uint64
		for _, c := range b {
			limb = limb<<8 | uint64(c)
		}
		return Int{limb, 0, 0, 0}
	case n > 32:
		return FromBytes(b[n-32:])
	}
	var z Int
	// Fill limbs from the tail of b.
	for i := 0; i < 4; i++ {
		end := len(b) - 8*i
		if end <= 0 {
			break
		}
		start := end - 8
		if start < 0 {
			start = 0
		}
		var limb uint64
		for _, c := range b[start:end] {
			limb = limb<<8 | uint64(c)
		}
		z[i] = limb
	}
	return z
}

// FromHex parses a hexadecimal literal with optional "0x" prefix.
func FromHex(s string) (Int, error) {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
	if s == "" || len(s) > 64 {
		return Int{}, fmt.Errorf("%w: %q", ErrBadHex, s)
	}
	var z Int
	for _, c := range s {
		var nib uint64
		switch {
		case c >= '0' && c <= '9':
			nib = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			nib = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			nib = uint64(c-'A') + 10
		default:
			return Int{}, fmt.Errorf("%w: %q", ErrBadHex, s)
		}
		z.shl1nibble()
		z[0] |= nib
	}
	return z, nil
}

// MustHex is FromHex that panics on malformed input. It is intended for
// package-level constants and tests only.
func MustHex(s string) Int {
	z, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return z
}

func (z *Int) shl1nibble() {
	z[3] = z[3]<<4 | z[2]>>60
	z[2] = z[2]<<4 | z[1]>>60
	z[1] = z[1]<<4 | z[0]>>60
	z[0] <<= 4
}

// FromBig converts a math/big integer, truncating to the low 256 bits.
// Negative values are converted to their two's-complement representation.
func FromBig(b *big.Int) Int {
	var z Int
	neg := b.Sign() < 0
	abs := new(big.Int).Abs(b)
	words := abs.Bits()
	for i := 0; i < len(words) && i < 4; i++ {
		z[i] = uint64(words[i])
	}
	if neg {
		z.Neg(&z)
	}
	return z
}

// ToBig returns the value as an unsigned math/big integer.
func (z *Int) ToBig() *big.Int {
	b := new(big.Int)
	for i := 3; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(z[i]))
	}
	return b
}

// Bytes32 returns the big-endian 32-byte representation.
func (z *Int) Bytes32() [32]byte {
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:8], z[3])
	binary.BigEndian.PutUint64(out[8:16], z[2])
	binary.BigEndian.PutUint64(out[16:24], z[1])
	binary.BigEndian.PutUint64(out[24:32], z[0])
	return out
}

// Bytes returns the minimal big-endian byte representation (empty for zero).
func (z *Int) Bytes() []byte {
	full := z.Bytes32()
	i := 0
	for i < 32 && full[i] == 0 {
		i++
	}
	out := make([]byte, 32-i)
	copy(out, full[i:])
	return out
}

// Hex returns a canonical 0x-prefixed lowercase hex string without leading
// zeros (0x0 for zero).
func (z *Int) Hex() string {
	if z.IsZero() {
		return "0x0"
	}
	const digits = "0123456789abcdef"
	full := z.Bytes32()
	var sb strings.Builder
	sb.WriteString("0x")
	started := false
	for _, c := range full {
		hi, lo := c>>4, c&0xf
		if started || hi != 0 {
			sb.WriteByte(digits[hi])
			started = true
		}
		if started || lo != 0 {
			sb.WriteByte(digits[lo])
			started = true
		}
	}
	return sb.String()
}

// String implements fmt.Stringer using the hex form.
func (z Int) String() string { return z.Hex() }

// IsZero reports whether z is zero.
func (z *Int) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// IsUint64 reports whether z fits in a uint64.
func (z *Int) IsUint64() bool { return z[1]|z[2]|z[3] == 0 }

// Uint64 returns the low 64 bits of z.
func (z *Int) Uint64() uint64 { return z[0] }

// Eq reports z == x.
func (z *Int) Eq(x *Int) bool {
	return z[0] == x[0] && z[1] == x[1] && z[2] == x[2] && z[3] == x[3]
}

// Cmp returns -1, 0, or +1 comparing z and x as unsigned integers.
func (z *Int) Cmp(x *Int) int {
	for i := 3; i >= 0; i-- {
		if z[i] < x[i] {
			return -1
		}
		if z[i] > x[i] {
			return 1
		}
	}
	return 0
}

// Lt reports z < x (unsigned).
func (z *Int) Lt(x *Int) bool { return z.Cmp(x) < 0 }

// Gt reports z > x (unsigned).
func (z *Int) Gt(x *Int) bool { return z.Cmp(x) > 0 }

// Sign returns -1 for negative (two's-complement), 0 for zero, +1 otherwise.
func (z *Int) Sign() int {
	if z.IsZero() {
		return 0
	}
	if z[3]>>63 == 1 {
		return -1
	}
	return 1
}

// Slt reports z < x under signed interpretation.
func (z *Int) Slt(x *Int) bool {
	zs, xs := z.Sign() < 0, x.Sign() < 0
	if zs != xs {
		return zs
	}
	return z.Lt(x)
}

// Sgt reports z > x under signed interpretation.
func (z *Int) Sgt(x *Int) bool {
	zs, xs := z.Sign() < 0, x.Sign() < 0
	if zs != xs {
		return xs
	}
	return z.Gt(x)
}

// Add sets z = x + y (mod 2^256) and returns z.
func (z *Int) Add(x, y *Int) *Int {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
	return z
}

// AddOverflow sets z = x + y and additionally reports whether the addition
// wrapped past 2^256.
func (z *Int) AddOverflow(x, y *Int) (of bool) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	return c != 0
}

// Sub sets z = x - y (mod 2^256) and returns z.
func (z *Int) Sub(x, y *Int) *Int {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], _ = bits.Sub64(x[3], y[3], b)
	return z
}

// SubUnderflow sets z = x - y and reports whether the subtraction borrowed.
func (z *Int) SubUnderflow(x, y *Int) (uf bool) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	return b != 0
}

// Neg sets z = -x (two's complement) and returns z.
func (z *Int) Neg(x *Int) *Int {
	var zero Int
	return z.Sub(&zero, x)
}

// Not sets z = ^x and returns z.
func (z *Int) Not(x *Int) *Int {
	z[0], z[1], z[2], z[3] = ^x[0], ^x[1], ^x[2], ^x[3]
	return z
}

// And sets z = x & y and returns z.
func (z *Int) And(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
	return z
}

// Or sets z = x | y and returns z.
func (z *Int) Or(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
	return z
}

// Xor sets z = x ^ y and returns z.
func (z *Int) Xor(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
	return z
}

// mul512 computes the full 512-bit product of x and y into p (little-endian
// 8 limbs).
func mul512(x, y *Int) [8]uint64 {
	var p [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			p[i+j], c = bits.Add64(p[i+j], lo, 0)
			hi += c
			p[i+j+1], c = bits.Add64(p[i+j+1], hi, 0)
			carry += c
			// propagate residual carry
			for k := i + j + 2; carry != 0 && k < 8; k++ {
				p[k], carry = bits.Add64(p[k], carry, 0)
			}
			carry = 0
		}
	}
	return p
}

// Mul sets z = x * y (mod 2^256) and returns z.
func (z *Int) Mul(x, y *Int) *Int {
	p := mul512(x, y)
	z[0], z[1], z[2], z[3] = p[0], p[1], p[2], p[3]
	return z
}

// bitLen512 returns the bit length of the 8-limb value p.
func bitLen512(p *[8]uint64) int {
	for i := 7; i >= 0; i-- {
		if p[i] != 0 {
			return i*64 + bits.Len64(p[i])
		}
	}
	return 0
}

// BitLen returns the minimum number of bits required to represent z.
func (z *Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if z[i] != 0 {
			return i*64 + bits.Len64(z[i])
		}
	}
	return 0
}

// divrem512 computes q, r such that x = q*y + r for a 512-bit dividend x and
// 256-bit divisor y != 0, via binary long division. The quotient may exceed
// 256 bits; only its low 256 bits are returned, which is sufficient for all
// callers (Div guarantees x < 2^256, MulMod only needs r).
func divrem512(x *[8]uint64, y *Int) (q, r Int) {
	n := bitLen512(x)
	for i := n - 1; i >= 0; i-- {
		// r = r<<1 | bit(i)
		carryOut := r[3] >> 63
		r[3] = r[3]<<1 | r[2]>>63
		r[2] = r[2]<<1 | r[1]>>63
		r[1] = r[1]<<1 | r[0]>>63
		r[0] = r[0]<<1 | (x[i/64]>>(uint(i)%64))&1
		if carryOut != 0 || r.Cmp(y) >= 0 {
			r.Sub(&r, y)
			if i < 256 {
				q[i/64] |= 1 << (uint(i) % 64)
			}
		}
	}
	return q, r
}

func to512(x *Int) [8]uint64 {
	return [8]uint64{x[0], x[1], x[2], x[3], 0, 0, 0, 0}
}

// udivrem computes the quotient and remainder of x / y for y != 0.
func udivrem(x, y *Int) (q, r Int) {
	if y.IsUint64() && x.IsUint64() {
		return NewUint64(x[0] / y[0]), NewUint64(x[0] % y[0])
	}
	if x.Cmp(y) < 0 {
		return Int{}, *x
	}
	w := to512(x)
	return divrem512(&w, y)
}

// Div sets z = x / y (EVM semantics: 0 when y == 0) and returns z.
func (z *Int) Div(x, y *Int) *Int {
	if y.IsZero() {
		*z = Int{}
		return z
	}
	q, _ := udivrem(x, y)
	*z = q
	return z
}

// Mod sets z = x % y (EVM semantics: 0 when y == 0) and returns z.
func (z *Int) Mod(x, y *Int) *Int {
	if y.IsZero() {
		*z = Int{}
		return z
	}
	_, r := udivrem(x, y)
	*z = r
	return z
}

// SDiv sets z = x / y under signed interpretation (EVM SDIV) and returns z.
func (z *Int) SDiv(x, y *Int) *Int {
	if y.IsZero() {
		*z = Int{}
		return z
	}
	xn, yn := x.Sign() < 0, y.Sign() < 0
	var ax, ay Int
	ax = *x
	ay = *y
	if xn {
		ax.Neg(x)
	}
	if yn {
		ay.Neg(y)
	}
	q, _ := udivrem(&ax, &ay)
	if xn != yn {
		q.Neg(&q)
	}
	*z = q
	return z
}

// SMod sets z = x % y under signed interpretation (EVM SMOD; result carries
// the dividend's sign) and returns z.
func (z *Int) SMod(x, y *Int) *Int {
	if y.IsZero() {
		*z = Int{}
		return z
	}
	xn := x.Sign() < 0
	var ax, ay Int
	ax = *x
	ay = *y
	if xn {
		ax.Neg(x)
	}
	if y.Sign() < 0 {
		ay.Neg(y)
	}
	_, r := udivrem(&ax, &ay)
	if xn {
		r.Neg(&r)
	}
	*z = r
	return z
}

// AddMod sets z = (x + y) % m (EVM ADDMOD: 0 when m == 0) and returns z.
func (z *Int) AddMod(x, y, m *Int) *Int {
	if m.IsZero() {
		*z = Int{}
		return z
	}
	var sum Int
	of := sum.AddOverflow(x, y)
	w := to512(&sum)
	if of {
		w[4] = 1
	}
	_, r := divrem512(&w, m)
	*z = r
	return z
}

// MulMod sets z = (x * y) % m computed over 512-bit intermediates (EVM
// MULMOD: 0 when m == 0) and returns z.
func (z *Int) MulMod(x, y, m *Int) *Int {
	if m.IsZero() {
		*z = Int{}
		return z
	}
	p := mul512(x, y)
	_, r := divrem512(&p, m)
	*z = r
	return z
}

// Exp sets z = base^exp (mod 2^256) by square-and-multiply and returns z.
func (z *Int) Exp(base, exp *Int) *Int {
	result := One
	b := *base
	for i := 0; i < 256; i++ {
		if exp[i/64]>>(uint(i)%64)&1 == 1 {
			result.Mul(&result, &b)
		}
		b.Mul(&b, &b)
	}
	*z = result
	return z
}

// SignExtend sets z = x sign-extended from byte position b (EVM SIGNEXTEND;
// b >= 31 leaves x unchanged) and returns z.
func (z *Int) SignExtend(b, x *Int) *Int {
	if !b.IsUint64() || b[0] >= 31 {
		*z = *x
		return z
	}
	bit := uint(b[0]*8 + 7)
	limb, off := bit/64, bit%64
	set := x[limb]>>off&1 == 1
	*z = *x
	// Clear or set all bits above `bit`.
	mask := uint64(1)<<off - 1 + 1<<off // bits [0, off] set
	if set {
		z[limb] |= ^mask
	} else {
		z[limb] &= mask
	}
	for i := int(limb) + 1; i < 4; i++ {
		if set {
			z[i] = ^uint64(0)
		} else {
			z[i] = 0
		}
	}
	return z
}

// Byte sets z to the n-th byte of x counted from the most significant end
// (EVM BYTE; 0 when n >= 32) and returns z.
func (z *Int) Byte(n, x *Int) *Int {
	if !n.IsUint64() || n[0] >= 32 {
		*z = Int{}
		return z
	}
	full := x.Bytes32()
	*z = NewUint64(uint64(full[n[0]]))
	return z
}

// Shl sets z = x << n (zero when n >= 256) and returns z.
func (z *Int) Shl(x *Int, n uint) *Int {
	if n >= 256 {
		*z = Int{}
		return z
	}
	v := *x
	for n >= 64 {
		v[3], v[2], v[1], v[0] = v[2], v[1], v[0], 0
		n -= 64
	}
	if n > 0 {
		v[3] = v[3]<<n | v[2]>>(64-n)
		v[2] = v[2]<<n | v[1]>>(64-n)
		v[1] = v[1]<<n | v[0]>>(64-n)
		v[0] <<= n
	}
	*z = v
	return z
}

// Shr sets z = x >> n logically (zero when n >= 256) and returns z.
func (z *Int) Shr(x *Int, n uint) *Int {
	if n >= 256 {
		*z = Int{}
		return z
	}
	v := *x
	for n >= 64 {
		v[0], v[1], v[2], v[3] = v[1], v[2], v[3], 0
		n -= 64
	}
	if n > 0 {
		v[0] = v[0]>>n | v[1]<<(64-n)
		v[1] = v[1]>>n | v[2]<<(64-n)
		v[2] = v[2]>>n | v[3]<<(64-n)
		v[3] >>= n
	}
	*z = v
	return z
}

// Sar sets z = x >> n arithmetically (sign-filling; all-ones or zero when
// n >= 256 depending on sign) and returns z.
func (z *Int) Sar(x *Int, n uint) *Int {
	neg := x.Sign() < 0
	if n >= 256 {
		if neg {
			*z = Max
		} else {
			*z = Int{}
		}
		return z
	}
	z.Shr(x, n)
	if neg && n > 0 {
		// Fill the vacated high bits with ones: OR with Max << (256-n).
		var fill Int
		fill.Shl(&Max, 256-n)
		z.Or(z, &fill)
	}
	return z
}
