package core

import (
	"testing"

	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

func testItem() sag.ItemID {
	return sag.StorageItem(types.HexToAddress("0xc0"), types.HexToHash("0x01"))
}

func never() bool { return false }

func TestSequenceReadFromSnapshot(t *testing.T) {
	s := newSequence(testItem())
	snap := u256.NewUint64(42)
	val, res, _, _ := s.tryRead(3, 0, snap, never, nil)
	if res == readBlocked {
		t.Fatal("read with no writers must not block")
	}
	if val.Uint64() != 42 {
		t.Errorf("val = %d, want snapshot 42", val.Uint64())
	}
}

func TestSequenceReadBlocksOnPendingWrite(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(1, kindWrite)
	_, res, _, w := s.tryRead(3, 0, u256.Zero, never, nil)
	if res != readBlocked || w == nil {
		t.Fatal("read after pending write must block")
	}
	if w.blockedTx != 1 {
		t.Errorf("waiter parked on tx %d, want 1", w.blockedTx)
	}
	// Publishing unblocks (the wait channel closes).
	victims := s.versionWrite(1, 0, u256.NewUint64(7), false)
	if len(victims) != 0 {
		t.Errorf("no completed readers yet, victims = %v", victims)
	}
	select {
	case <-w.ch:
	default:
		t.Fatal("waiter not woken by publish")
	}
	val, res, _, _ := s.tryRead(3, 0, u256.Zero, never, w)
	if res == readBlocked || val.Uint64() != 7 {
		t.Errorf("read after publish = %d (res %d)", val.Uint64(), res)
	}
}

func TestSequenceReadSkipsDropped(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(1, kindWrite)
	s.versionWrite(1, 0, u256.NewUint64(7), false)
	s.dropVersion(1, 0)
	val, res, _, _ := s.tryRead(3, 0, u256.NewUint64(100), never, nil)
	if res == readBlocked {
		t.Fatal("dropped version must be transparent")
	}
	if val.Uint64() != 100 {
		t.Errorf("val = %d, want snapshot after drop", val.Uint64())
	}
}

func TestSequenceLateWriteAbortsCompletedReader(t *testing.T) {
	s := newSequence(testItem())
	// Reader tx3 completes against the snapshot.
	if _, res, _, _ := s.tryRead(3, 5, u256.Zero, never, nil); res == readBlocked {
		t.Fatal("setup read blocked")
	}
	// An unpredicted write by tx1 arrives afterwards (the Fig. 5 case).
	victims := s.versionWrite(1, 0, u256.NewUint64(9), false)
	if len(victims) != 1 || victims[0].tx != 3 || victims[0].inc != 5 {
		t.Fatalf("victims = %v, want tx3@inc5", victims)
	}
}

// TestSequenceLateWriteAbortsPredictedWriterWhoRead pins the θ-in-effect
// case: tx3's C-SAG predicted only a write of the item (a stale or corrupted
// analysis missed the read part), so its entry is ω — but at runtime tx3
// read the item before publishing. A version published below it must still
// invalidate that completed read; classifying the entry by its predicted
// kind alone loses the abort and commits a value computed from a stale read.
func TestSequenceLateWriteAbortsPredictedWriterWhoRead(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(3, kindWrite)
	if _, res, _, _ := s.tryRead(3, 2, u256.Zero, never, nil); res == readBlocked {
		t.Fatal("setup read blocked")
	}
	victims := s.versionWrite(1, 0, u256.NewUint64(9), false)
	if len(victims) != 1 || victims[0].tx != 3 || victims[0].inc != 2 {
		t.Fatalf("victims = %v, want the read-before-publish ω entry tx3@inc2", victims)
	}
}

// TestSequenceLateWriteAbortsDeltaEntryWhoRead is the ω̄ variant: after
// degradeRead, tx3's predicted-delta entry carries a completed read of the
// delta's true base. A later publish below it must invalidate that read even
// though delta *writes* never conflict with each other.
func TestSequenceLateWriteAbortsDeltaEntryWhoRead(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(3, kindDelta)
	s.versionWrite(3, 2, u256.NewUint64(4), true) // published delta part
	if _, res, _, _ := s.tryRead(3, 2, u256.NewUint64(10), never, nil); res == readBlocked {
		t.Fatal("setup read blocked")
	}
	victims := s.versionWrite(1, 0, u256.NewUint64(9), false)
	if len(victims) != 1 || victims[0].tx != 3 || victims[0].inc != 2 {
		t.Fatalf("victims = %v, want the degraded ω̄ entry tx3@inc2", victims)
	}
}

// TestSequenceLateWriteAbortsReaderOfDroppedEntry is the lost update the
// multicore chaos soak hit: tx3's first incarnation published and was
// aborted (its version dropped), its next incarnation re-read through the
// dropped entry, and only then did an earlier writer publish. The dropped
// write part must not hide the completed read part from the abort scan.
func TestSequenceLateWriteAbortsReaderOfDroppedEntry(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(1, kindWrite)
	s.addPredicted(3, kindReadWrite)
	s.versionWrite(1, 0, u256.NewUint64(6), false)
	if val, res, _, _ := s.tryRead(3, 0, u256.Zero, never, nil); res == readBlocked || val.Uint64() != 6 {
		t.Fatalf("tx3@inc0 read %d (res %d), want 6", val.Uint64(), res)
	}
	s.versionWrite(3, 0, u256.NewUint64(7), false)
	// tx3@inc0 is aborted for an unrelated reason: its version is dropped.
	if victims := s.dropVersion(3, 0); len(victims) != 0 {
		t.Fatalf("drop victims = %v, want none", victims)
	}
	if val, res, _, _ := s.tryRead(3, 1, u256.Zero, never, nil); res == readBlocked || val.Uint64() != 6 {
		t.Fatalf("tx3@inc1 read %d (res %d), want 6", val.Uint64(), res)
	}
	// tx1 republishes before tx3@inc1 writes: tx3@inc1 read a stale value.
	victims := s.versionWrite(1, 1, u256.NewUint64(9), false)
	if len(victims) != 1 || victims[0].tx != 3 || victims[0].inc != 1 {
		t.Fatalf("victims = %v, want tx3@inc1", victims)
	}
}

func TestSequenceScanStopsAtInterveningWriter(t *testing.T) {
	s := newSequence(testItem())
	// tx2 writes (done), tx3 read tx2's version, tx5 read it too.
	s.versionWrite(2, 0, u256.NewUint64(5), false)
	s.tryRead(3, 0, u256.Zero, never, nil)
	s.tryRead(5, 0, u256.Zero, never, nil)
	// Now tx1 publishes: tx3/tx5 read tx2's version, NOT tx1's — the scan
	// must stop at tx2's ω and abort nobody.
	victims := s.versionWrite(1, 0, u256.NewUint64(1), false)
	if len(victims) != 0 {
		t.Errorf("scan crossed an intervening writer: victims %v", victims)
	}
}

func TestSequenceDeltaDoesNotAbortDeltaWriters(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(2, kindDelta)
	s.addPredicted(4, kindDelta)
	s.versionWrite(4, 0, u256.NewUint64(10), true)
	// tx2's delta arrives later; delta-delta never conflicts.
	victims := s.versionWrite(2, 0, u256.NewUint64(5), true)
	if len(victims) != 0 {
		t.Errorf("delta invalidated a delta: %v", victims)
	}
	// A reader after both merges them onto the snapshot base.
	val, res, _, _ := s.tryRead(9, 0, u256.NewUint64(100), never, nil)
	if res == readBlocked {
		t.Fatal("read blocked with all deltas done")
	}
	if val.Uint64() != 115 {
		t.Errorf("merged value = %d, want 100+10+5", val.Uint64())
	}
}

func TestSequenceLateDeltaAbortsCompletedReader(t *testing.T) {
	s := newSequence(testItem())
	s.versionWrite(4, 0, u256.NewUint64(10), true)
	s.tryRead(9, 2, u256.Zero, never, nil) // merged only tx4's delta
	victims := s.versionWrite(2, 0, u256.NewUint64(5), true)
	if len(victims) != 1 || victims[0].tx != 9 {
		t.Errorf("late delta must abort the reader: %v", victims)
	}
}

func TestSequenceReadBlocksOnPendingDelta(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(2, kindDelta)
	if _, res, _, _ := s.tryRead(5, 0, u256.Zero, never, nil); res != readBlocked {
		t.Fatal("read must wait for a pending delta from an earlier tx")
	}
}

func TestSequenceSameIncarnationDeltaAccumulates(t *testing.T) {
	s := newSequence(testItem())
	s.versionWrite(1, 0, u256.NewUint64(3), true)
	s.versionWrite(1, 0, u256.NewUint64(4), true)
	val, _, _, _ := s.tryRead(5, 0, u256.Zero, never, nil)
	if val.Uint64() != 7 {
		t.Errorf("accumulated delta = %d, want 7", val.Uint64())
	}
}

func TestSequenceDropAfterRepublishIsIgnored(t *testing.T) {
	s := newSequence(testItem())
	s.versionWrite(1, 0, u256.NewUint64(5), false)
	// Incarnation 1 republished before the aborter got to drop inc 0.
	s.versionWrite(1, 1, u256.NewUint64(6), false)
	s.dropVersion(1, 0)
	val, res, _, _ := s.tryRead(3, 0, u256.Zero, never, nil)
	if res == readBlocked || val.Uint64() != 6 {
		t.Errorf("val = %d (res %d), want the republished 6", val.Uint64(), res)
	}
}

func TestSequencePublishAfterDropMarkIsIgnored(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(1, kindWrite)
	// Aborter drops incarnation 0 before its in-flight publish lands.
	s.dropVersion(1, 0)
	s.versionWrite(1, 0, u256.NewUint64(5), false)
	val, res, _, _ := s.tryRead(3, 0, u256.NewUint64(77), never, nil)
	if res == readBlocked {
		t.Fatal("read blocked on a dead version")
	}
	if val.Uint64() != 77 {
		t.Errorf("stale publish resurrected: read %d, want snapshot 77", val.Uint64())
	}
}

func TestSequenceReadWriteUpgrade(t *testing.T) {
	s := newSequence(testItem())
	s.tryRead(2, 0, u256.Zero, never, nil) // tx2 reads -> ρ entry, readDone
	s.versionWrite(2, 0, u256.NewUint64(8), false)
	i, ok := s.find(2)
	if !ok {
		t.Fatal("entry missing")
	}
	if s.entries[i].kind != kindReadWrite {
		t.Errorf("kind = %s, want θ", s.entries[i].kind)
	}
}

func TestSequenceFinalValue(t *testing.T) {
	s := newSequence(testItem())
	snap := u256.NewUint64(100)
	if _, wrote := s.finalValue(snap); wrote {
		t.Error("untouched sequence reports a write")
	}
	s.versionWrite(1, 0, u256.NewUint64(10), false)
	s.versionWrite(3, 0, u256.NewUint64(20), false)
	s.versionWrite(5, 0, u256.NewUint64(7), true) // delta on top
	val, wrote := s.finalValue(snap)
	if !wrote || val.Uint64() != 27 {
		t.Errorf("final = %d (wrote %v), want 20+7", val.Uint64(), wrote)
	}
	// Deltas only: merge onto the snapshot.
	s2 := newSequence(testItem())
	s2.versionWrite(2, 0, u256.NewUint64(5), true)
	val, wrote = s2.finalValue(snap)
	if !wrote || val.Uint64() != 105 {
		t.Errorf("delta-only final = %d, want 105", val.Uint64())
	}
}

func TestSequenceAbortedReaderNotMarked(t *testing.T) {
	s := newSequence(testItem())
	dead := func() bool { return true }
	if _, res, _, _ := s.tryRead(3, 0, u256.Zero, dead, nil); res != readAborted {
		t.Fatal("dead incarnation must not complete reads")
	}
	// No read mark must exist for tx3.
	if i, ok := s.find(3); ok && s.entries[i].readDone {
		t.Error("dead incarnation left a read mark")
	}
}

func TestSequenceResetRead(t *testing.T) {
	s := newSequence(testItem())
	s.tryRead(3, 1, u256.Zero, never, nil)
	s.resetRead(3, 1)
	victims := s.versionWrite(1, 0, u256.NewUint64(9), false)
	if len(victims) != 0 {
		t.Errorf("reset read still targeted: %v", victims)
	}
	// Reset with the wrong incarnation leaves the mark.
	s.tryRead(5, 2, u256.Zero, never, nil)
	s.resetRead(5, 1)
	victims = s.versionWrite(4, 0, u256.NewUint64(9), false)
	if len(victims) != 1 {
		t.Errorf("mark for live incarnation lost: %v", victims)
	}
}

// TestSequenceTargetedWakeup checks that publishes wake only the waiters
// whose reads they can affect: a waiter parked at a lower position than the
// mutated entry stays asleep.
func TestSequenceTargetedWakeup(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(2, kindWrite)
	s.addPredicted(6, kindWrite)
	_, res, _, early := s.tryRead(4, 0, u256.Zero, never, nil) // parks on tx2
	if res != readBlocked {
		t.Fatal("reader 4 must block on tx2's pending write")
	}
	_, res, _, late := s.tryRead(9, 0, u256.Zero, never, nil) // parks on tx6
	if res != readBlocked {
		t.Fatal("reader 9 must block on tx6's pending write")
	}
	// tx6 publishes: only the reader positioned after tx6 may wake.
	s.versionWrite(6, 0, u256.NewUint64(1), false)
	select {
	case <-early.ch:
		t.Fatal("reader 4 woken by a publish at position 6 > 4")
	default:
	}
	select {
	case <-late.ch:
	default:
		t.Fatal("reader 9 not woken by the publish it waits behind")
	}
	// tx2 publishes: now the early reader wakes too.
	s.versionWrite(2, 0, u256.NewUint64(2), false)
	select {
	case <-early.ch:
	default:
		t.Fatal("reader 4 not woken by tx2's publish")
	}
}

// TestSequenceOnWakeCallback checks the wake-notification hook: each woken
// waiter fires onWake exactly once with the reader, the entry it parked on,
// and the mutating transaction; waiters that stay asleep fire nothing.
func TestSequenceOnWakeCallback(t *testing.T) {
	type wake struct{ reader, blocked, mut int }
	var wakes []wake
	s := newSequence(testItem())
	s.onWake = func(readerTx, blockedTx, mutTx int) {
		wakes = append(wakes, wake{readerTx, blockedTx, mutTx})
	}
	s.addPredicted(2, kindWrite)
	s.addPredicted(6, kindWrite)
	if _, res, _, _ := s.tryRead(4, 0, u256.Zero, never, nil); res != readBlocked {
		t.Fatal("reader 4 must block on tx2")
	}
	if _, res, _, _ := s.tryRead(9, 0, u256.Zero, never, nil); res != readBlocked {
		t.Fatal("reader 9 must block on tx6")
	}
	// tx6's publish wakes only reader 9 (reader 4 parked earlier at tx2).
	s.versionWrite(6, 0, u256.NewUint64(1), false)
	if len(wakes) != 1 || wakes[0] != (wake{reader: 9, blocked: 6, mut: 6}) {
		t.Fatalf("wakes after tx6 publish = %v, want exactly reader 9", wakes)
	}
	// tx2's publish wakes reader 4.
	s.versionWrite(2, 0, u256.NewUint64(2), false)
	if len(wakes) != 2 || wakes[1] != (wake{reader: 4, blocked: 2, mut: 2}) {
		t.Fatalf("wakes after tx2 publish = %v, want reader 4 second", wakes)
	}
	// A re-publish with everyone already woken fires nothing new.
	s.versionWrite(2, 1, u256.NewUint64(3), false)
	if len(wakes) != 2 {
		t.Fatalf("re-publish fired extra wakes: %v", wakes)
	}
}

// TestSequenceResumeCursor checks the park-position cache: a woken reader
// resumes from the entry it blocked on, and a mutation inside the
// already-scanned window invalidates the cache (stale) so the resumed scan
// still observes it.
func TestSequenceResumeCursor(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(2, kindWrite)
	s.versionWrite(5, 0, u256.NewUint64(50), true) // done delta above tx2
	_, res, _, w := s.tryRead(9, 0, u256.Zero, never, nil)
	if res != readBlocked || w.blockedTx != 2 {
		t.Fatalf("reader must park on tx2 (got blocked=%d res=%d)", w.blockedTx, res)
	}
	if w.deltas.Uint64() != 50 {
		t.Errorf("cached deltas = %d, want 50 (tx5's done delta)", w.deltas.Uint64())
	}
	// A new delta lands inside the scanned window (2 < 7 < 9): stale.
	s.versionWrite(7, 0, u256.NewUint64(7), true)
	if !w.stale {
		t.Error("mutation inside the scanned window must mark the waiter stale")
	}
	s.versionWrite(2, 0, u256.NewUint64(100), false)
	val, res, _, _ := s.tryRead(9, 0, u256.Zero, never, w)
	if res == readBlocked {
		t.Fatal("read still blocked after all publishes")
	}
	if val.Uint64() != 157 {
		t.Errorf("resumed read = %d, want 100+50+7", val.Uint64())
	}
}

// TestSequenceResumeCursorFresh: when nothing touched the scanned window,
// the resumed read reuses the cached deltas (no stale flag) and still
// produces the exact value.
func TestSequenceResumeCursorFresh(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(2, kindWrite)
	s.versionWrite(5, 0, u256.NewUint64(50), true)
	_, _, _, w := s.tryRead(9, 0, u256.Zero, never, nil)
	s.versionWrite(2, 0, u256.NewUint64(100), false)
	if w.stale {
		t.Error("publish at the park position must not mark the cache stale")
	}
	val, res, _, _ := s.tryRead(9, 0, u256.Zero, never, w)
	if res == readBlocked || val.Uint64() != 150 {
		t.Errorf("resumed read = %d (res %d), want 100+50", val.Uint64(), res)
	}
}

func TestSequenceDebugString(t *testing.T) {
	s := newSequence(testItem())
	s.addPredicted(1, kindWrite)
	s.versionWrite(1, 0, u256.NewUint64(5), false)
	s.tryRead(3, 0, u256.Zero, never, nil)
	out := s.debugString()
	if out == "" {
		t.Fatal("empty debug string")
	}
	for _, want := range []string{"T1:ω[T]", "T3:ρ"} {
		if !contains(out, want) {
			t.Errorf("debug %q missing %q", out, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
