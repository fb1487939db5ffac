// Package rlp implements Recursive Length Prefix encoding, the
// serialization format Ethereum uses for trie nodes, transactions, and
// block headers. Values form a tree of byte-strings and lists.
package rlp

import (
	"errors"
	"fmt"
)

// Sentinel decoding errors, matchable with errors.Is.
var (
	ErrTruncated   = errors.New("rlp: input truncated")
	ErrTrailing    = errors.New("rlp: trailing bytes after value")
	ErrNonCanon    = errors.New("rlp: non-canonical encoding")
	ErrNestedDepth = errors.New("rlp: maximum nesting depth exceeded")
)

// maxDepth bounds recursion when decoding untrusted input.
const maxDepth = 64

// Item is a node of an RLP value tree: either a byte-string (IsList false,
// payload in Str) or a list of items (IsList true, children in List).
type Item struct {
	Str    []byte
	List   []Item
	IsList bool
}

// String returns a byte-string item. The slice is referenced, not copied.
func String(b []byte) Item { return Item{Str: b} }

// Uint returns a byte-string item holding the canonical (minimal big-endian,
// empty for zero) encoding of v.
func Uint(v uint64) Item {
	if v == 0 {
		return Item{Str: []byte{}}
	}
	var buf [8]byte
	n := 0
	for i := 7; i >= 0; i-- {
		b := byte(v >> (8 * i))
		if n == 0 && b == 0 {
			continue
		}
		buf[n] = b
		n++
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return Item{Str: out}
}

// List returns a list item from the given children.
func List(items ...Item) Item { return Item{List: items, IsList: true} }

// AsUint decodes the item as a canonical unsigned integer.
func (it *Item) AsUint() (uint64, error) {
	if it.IsList {
		return 0, fmt.Errorf("%w: expected string, got list", ErrNonCanon)
	}
	if len(it.Str) > 8 {
		return 0, fmt.Errorf("%w: integer too large", ErrNonCanon)
	}
	if len(it.Str) > 0 && it.Str[0] == 0 {
		return 0, fmt.Errorf("%w: leading zero in integer", ErrNonCanon)
	}
	var v uint64
	for _, b := range it.Str {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// Encode returns the RLP encoding of the item.
func Encode(it Item) []byte {
	return appendItem(nil, it)
}

// EncodeList is shorthand for Encode(List(items...)).
func EncodeList(items ...Item) []byte {
	return Encode(List(items...))
}

// AppendString appends the encoding of the byte-string s to dst.
func AppendString(dst, s []byte) []byte { return appendString(dst, s) }

// StringSize returns the encoded size of the byte-string s.
func StringSize(s []byte) int {
	if len(s) == 1 && s[0] < 0x80 {
		return 1
	}
	return lengthSize(len(s)) + len(s)
}

// AppendListHeader appends the header of a list whose encoded children
// take payload bytes; the caller appends those children.
func AppendListHeader(dst []byte, payload int) []byte {
	return appendLength(dst, 0xc0, payload)
}

// ListSize returns the encoded size of a list whose encoded children take
// payload bytes.
func ListSize(payload int) int { return lengthSize(payload) + payload }

// lengthSize is the size of the header appendLength writes for n.
func lengthSize(n int) int {
	k := 1
	if n > 55 {
		for ; n > 0; n >>= 8 {
			k++
		}
	}
	return k
}

func appendItem(dst []byte, it Item) []byte {
	if !it.IsList {
		return appendString(dst, it.Str)
	}
	var payload []byte
	for _, child := range it.List {
		payload = appendItem(payload, child)
	}
	dst = appendLength(dst, 0xc0, len(payload))
	return append(dst, payload...)
}

func appendString(dst, s []byte) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(dst, s[0])
	}
	dst = appendLength(dst, 0x80, len(s))
	return append(dst, s...)
}

func appendLength(dst []byte, base byte, n int) []byte {
	if n <= 55 {
		return append(dst, base+byte(n))
	}
	var lenBytes [8]byte
	k := 0
	for i := 7; i >= 0; i-- {
		b := byte(uint64(n) >> (8 * i))
		if k == 0 && b == 0 {
			continue
		}
		lenBytes[k] = b
		k++
	}
	dst = append(dst, base+55+byte(k))
	return append(dst, lenBytes[:k]...)
}

// Decode parses exactly one RLP value from input, rejecting trailing bytes.
// Returned byte-strings alias the input buffer.
func Decode(input []byte) (Item, error) {
	it, rest, err := decodeOne(input, 0)
	if err != nil {
		return Item{}, err
	}
	if len(rest) != 0 {
		return Item{}, fmt.Errorf("%w: %d bytes", ErrTrailing, len(rest))
	}
	return it, nil
}

func decodeOne(in []byte, depth int) (Item, []byte, error) {
	if depth > maxDepth {
		return Item{}, nil, ErrNestedDepth
	}
	if len(in) == 0 {
		return Item{}, nil, ErrTruncated
	}
	prefix := in[0]
	switch {
	case prefix < 0x80: // single byte
		return Item{Str: in[:1]}, in[1:], nil
	case prefix <= 0xb7: // short string
		n := int(prefix - 0x80)
		if len(in) < 1+n {
			return Item{}, nil, ErrTruncated
		}
		if n == 1 && in[1] < 0x80 {
			return Item{}, nil, fmt.Errorf("%w: single byte should be unprefixed", ErrNonCanon)
		}
		return Item{Str: in[1 : 1+n]}, in[1+n:], nil
	case prefix <= 0xbf: // long string
		payload, rest, err := readLong(in, prefix-0xb7)
		if err != nil {
			return Item{}, nil, err
		}
		return Item{Str: payload}, rest, nil
	case prefix <= 0xf7: // short list
		n := int(prefix - 0xc0)
		if len(in) < 1+n {
			return Item{}, nil, ErrTruncated
		}
		children, err := decodeChildren(in[1:1+n], depth+1)
		if err != nil {
			return Item{}, nil, err
		}
		return Item{List: children, IsList: true}, in[1+n:], nil
	default: // long list
		payload, rest, err := readLong(in, prefix-0xf7)
		if err != nil {
			return Item{}, nil, err
		}
		children, err := decodeChildren(payload, depth+1)
		if err != nil {
			return Item{}, nil, err
		}
		return Item{List: children, IsList: true}, rest, nil
	}
}

func readLong(in []byte, lenOfLen byte) (payload, rest []byte, err error) {
	k := int(lenOfLen)
	if len(in) < 1+k {
		return nil, nil, ErrTruncated
	}
	if in[1] == 0 {
		return nil, nil, fmt.Errorf("%w: leading zero in length", ErrNonCanon)
	}
	var n uint64
	for _, b := range in[1 : 1+k] {
		n = n<<8 | uint64(b)
		// A length beyond the input can never be satisfied; bailing here
		// also prevents overflow when converting to int below.
		if n > uint64(len(in)) {
			return nil, nil, ErrTruncated
		}
	}
	if n <= 55 {
		return nil, nil, fmt.Errorf("%w: long form for short payload", ErrNonCanon)
	}
	end := 1 + k + int(n)
	if len(in) < end {
		return nil, nil, ErrTruncated
	}
	return in[1+k : end], in[end:], nil
}

func decodeChildren(payload []byte, depth int) ([]Item, error) {
	var children []Item
	for len(payload) > 0 {
		child, rest, err := decodeOne(payload, depth)
		if err != nil {
			return nil, err
		}
		children = append(children, child)
		payload = rest
	}
	return children, nil
}
