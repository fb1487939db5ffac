package trie

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dmvcc/internal/types"
)

func testEnc(i, n int) ([]byte, types.Hash) {
	enc := bytes.Repeat([]byte(fmt.Sprintf("%08d", i)), n/8+1)[:n]
	return enc, types.Keccak(enc)
}

func TestMemStoreDuplicatePutAndLen(t *testing.T) {
	s := NewMemStore()
	enc, h := testEnc(1, 40)
	s.PutNode(h, enc)
	s.PutNode(h, append([]byte(nil), enc...))
	if s.Len() != 1 {
		t.Fatalf("Len after duplicate put = %d, want 1", s.Len())
	}
	for i := 2; i <= 100; i++ {
		e, hh := testEnc(i, 33+i%50)
		s.PutNode(hh, e)
		s.PutNode(hh, e)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	got, err := s.GetNode(h)
	if err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("GetNode = %x, %v; want %x", got, err, enc)
	}
	if _, err := s.GetNode(types.Keccak([]byte("absent"))); err == nil {
		t.Fatal("GetNode of a missing hash succeeded")
	}
	// The store copies: the caller may reuse its buffer after PutNode.
	buf, hb := testEnc(500, 64)
	want := append([]byte(nil), buf...)
	s.PutNode(hb, buf)
	for i := range buf {
		buf[i] = 0xff
	}
	if got, _ := s.GetNode(hb); !bytes.Equal(got, want) {
		t.Fatalf("stored encoding changed with the caller's buffer: %x", got)
	}
}

func TestMemStoreAppendDoesNotClobberNeighbour(t *testing.T) {
	s := NewMemStore()
	a, ha := testEnc(1, 40)
	b, hb := testEnc(2, 40)
	s.PutNode(ha, a)
	s.PutNode(hb, b)
	got, _ := s.GetNode(ha)
	if cap(got) != len(got) {
		t.Fatalf("GetNode capacity %d exceeds length %d", cap(got), len(got))
	}
	_ = append(got, bytes.Repeat([]byte{0xee}, 40)...)
	if got, _ := s.GetNode(hb); !bytes.Equal(got, b) {
		t.Fatalf("neighbour clobbered by append: %x", got)
	}
}

func TestMemStoreOversizedEncoding(t *testing.T) {
	s := NewMemStore()
	small1, h1 := testEnc(1, 100)
	s.PutNode(h1, small1)
	big, hb := testEnc(7, slabSize+12345)
	s.PutNode(hb, big)
	small2, h2 := testEnc(2, 100)
	s.PutNode(h2, small2)
	// Fill past the first slab so a fresh one is opened after the big one.
	for i := 10; i < 10+slabSize/1000+5; i++ {
		e, h := testEnc(i, 1000)
		s.PutNode(h, e)
	}
	for _, c := range []struct {
		h   types.Hash
		enc []byte
	}{{h1, small1}, {hb, big}, {h2, small2}} {
		got, err := s.GetNode(c.h)
		if err != nil || !bytes.Equal(got, c.enc) {
			t.Fatalf("GetNode(%s): %d bytes, %v; want %d bytes", c.h, len(got), err, len(c.enc))
		}
	}
}

// TestMemStoreConcurrent runs writers (with overlapping hashes) and readers
// against one store; run under -race it also checks the arena's
// publication of appended bytes.
func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	const writers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Half the keys are shared between writers (identical
				// bytes, as content addressing guarantees).
				k := i
				if i%2 == 1 {
					k = w*per + i + per
				}
				e, h := testEnc(k, 32+k%300)
				s.PutNode(h, e)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e, h := testEnc(i&^1, 32+(i&^1)%300)
				if got, err := s.GetNode(h); err == nil && !bytes.Equal(got, e) {
					t.Errorf("reader %d: GetNode returned wrong bytes", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := per/2 + writers*per/2
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	for i := 0; i < per; i += 2 {
		e, h := testEnc(i, 32+i%300)
		if got, err := s.GetNode(h); err != nil || !bytes.Equal(got, e) {
			t.Fatalf("GetNode(%d) after writers: %v", i, err)
		}
	}
}
