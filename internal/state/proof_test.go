package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dmvcc/internal/trie"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// proofWorld commits the same few blocks to a reference DB and a flat
// backend and returns both (same roots, different node-store provenance:
// the DB's nodes come from incremental resident-trie commits, the flat
// backend's from per-shard commits).
func proofWorld(t *testing.T) (*DB, *FlatBackend, []types.Address) {
	t.Helper()
	db := NewDB()
	fb := NewFlatMem()
	t.Cleanup(func() { fb.Close() })
	addrs := testAddrs(20)
	rng := rand.New(rand.NewSource(0x9f))
	for blk := 0; blk < 5; blk++ {
		ws := randWriteSet(rng, addrs)
		wr, err := db.Commit(ws)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fb.Commit(ws)
		if err != nil {
			t.Fatal(err)
		}
		if wr != fr {
			t.Fatalf("block %d: roots diverge before proof test", blk)
		}
	}
	return db, fb, addrs
}

// TestProofRoundTripFlatVsTrie: account proofs built from the flat backend's
// lazily committed trie verify against the shared root and prove the same
// values as proofs built from the reference DB — for present and absent
// accounts alike.
func TestProofRoundTripFlatVsTrie(t *testing.T) {
	db, fb, addrs := proofWorld(t)
	root := db.Root()

	ghost := types.HexToAddress("0xdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef")
	for _, addr := range append(addrs[:8:8], ghost) {
		dbProof, err := ProveAccount(db, addr)
		if err != nil {
			t.Fatalf("db proof %s: %v", addr, err)
		}
		fbProof, err := ProveAccount(fb, addr)
		if err != nil {
			t.Fatalf("flat proof %s: %v", addr, err)
		}

		hk := types.Keccak(addr[:])
		dbVal, err := trie.VerifyProof(root, hk[:], dbProof)
		if err != nil {
			t.Fatalf("verify db proof %s: %v", addr, err)
		}
		fbVal, err := trie.VerifyProof(root, hk[:], fbProof)
		if err != nil {
			t.Fatalf("verify flat proof %s: %v", addr, err)
		}
		if !bytes.Equal(dbVal, fbVal) {
			t.Errorf("%s: proven values differ: db %x, flat %x", addr, dbVal, fbVal)
		}
		if db.Exists(addr) {
			if len(dbVal) == 0 {
				t.Errorf("%s: existing account proved absent", addr)
			}
			acc, err := decodeAccount(fbVal)
			if err != nil {
				t.Fatalf("%s: proven value not an account: %v", addr, err)
			}
			if want := db.Balance(addr); !acc.Balance.Eq(&want) {
				t.Errorf("%s: proven balance %s != %s", addr, acc.Balance.Hex(), want.Hex())
			}
		} else if len(dbVal) != 0 {
			t.Errorf("%s: absent account proved present: %x", addr, dbVal)
		}
	}
}

// TestStorageProofRoundTrip: storage-slot proofs from both backends verify
// against the account's storage root and agree on the slot value.
func TestStorageProofRoundTrip(t *testing.T) {
	db, fb, addrs := proofWorld(t)
	for _, addr := range addrs {
		for s := 0; s < 12; s++ {
			slot := types.HexToHash(fmt.Sprintf("0x%02x", s))
			want := db.Storage(addr, slot)

			dbRoot, dbProof, err := ProveStorage(db, addr, slot)
			if err != nil {
				continue // account absent from the trie
			}
			fbRoot, fbProof, err := ProveStorage(fb, addr, slot)
			if err != nil {
				t.Fatalf("flat storage proof %s/%s: %v", addr, slot, err)
			}
			if dbRoot != fbRoot {
				t.Fatalf("%s: storage roots differ: db %s, flat %s", addr, dbRoot, fbRoot)
			}
			hk := types.Keccak(slot[:])
			dbVal, err := trie.VerifyProof(dbRoot, hk[:], dbProof)
			if err != nil {
				t.Fatalf("verify db storage proof: %v", err)
			}
			fbVal, err := trie.VerifyProof(fbRoot, hk[:], fbProof)
			if err != nil {
				t.Fatalf("verify flat storage proof: %v", err)
			}
			if !bytes.Equal(dbVal, fbVal) {
				t.Errorf("%s/%s: proven slot values differ", addr, slot)
			}
			got := u256.FromBytes(dbVal)
			if !got.Eq(&want) {
				t.Errorf("%s/%s: proven %s != committed %s", addr, slot, got.Hex(), want.Hex())
			}
		}
	}
}

// TestProofTamperRejected: a proof with a mutated node fails verification
// rather than proving a wrong value.
func TestProofTamperRejected(t *testing.T) {
	db, _, addrs := proofWorld(t)
	addr := addrs[0]
	proof, err := ProveAccount(db, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) == 0 {
		t.Fatal("empty proof for existing account")
	}
	proof[0] = append([]byte(nil), proof[0]...)
	proof[0][len(proof[0])-1] ^= 0xff
	hk := types.Keccak(addr[:])
	if _, err := trie.VerifyProof(db.Root(), hk[:], proof); err == nil {
		t.Error("tampered proof verified")
	}
}
