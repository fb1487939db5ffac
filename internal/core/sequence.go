// Package core implements DMVCC — deterministic multi-version concurrency
// control — the paper's contribution. Each state item has an access
// sequence holding one version per writing transaction (write versioning,
// §IV-D); reads resolve to the closest preceding finished version and block
// on pending ones; commutative increments are stored as order-free deltas;
// writes become visible at release points before the transaction commits
// (early-write visibility, §IV-C); and stale reads trigger cascading aborts
// (§IV-E) that preserve deterministic serializability (Theorem 1).
package core

import (
	"fmt"
	"sort"
	"sync"

	"dmvcc/internal/sag"
	"dmvcc/internal/u256"
)

// entryKind is the access type of one transaction on one item.
type entryKind uint8

// Access kinds, mirroring the paper's ρ/ω/θ plus the commutative ω̄ (delta).
const (
	kindRead      entryKind = iota + 1 // ρ
	kindWrite                          // ω
	kindReadWrite                      // θ
	kindDelta                          // ω̄ (commutative)
)

func (k entryKind) String() string {
	switch k {
	case kindRead:
		return "ρ"
	case kindWrite:
		return "ω"
	case kindReadWrite:
		return "θ"
	case kindDelta:
		return "ω̄"
	default:
		return "?"
	}
}

// entryStatus is the write-part status of an entry ("F" field in Fig. 4).
type entryStatus uint8

const (
	statusPending entryStatus = iota + 1 // not finished ("N")
	statusDone                           // value available
	statusDropped                        // writer aborted or never wrote
)

// entry is one transaction's slot in an access sequence.
type entry struct {
	tx        int
	kind      entryKind
	predicted bool // created from the C-SAG (vs dynamically inserted)

	status   entryStatus
	value    u256.Int // absolute value (ω/θ) or accumulated delta (ω̄)
	writeInc int      // incarnation that produced value
	dropInc  int      // incarnation whose publishes must be ignored (-1 none)

	readDone bool
	readInc  int
	// readSrcTx is the transaction whose version the completed read
	// observed (-1 when it resolved from the committed snapshot). Forensics
	// uses it to classify the abort when the read later goes stale.
	readSrcTx int
}

// victim identifies a transaction incarnation to abort, carrying the
// forensic context of the stale read: the item, the invalidating writer's
// incarnation and predictedness, and the version the victim had observed.
type victim struct {
	tx  int
	inc int

	item      sag.ItemID
	writerInc int
	predicted bool // the invalidating entry came from the C-SAG
	readSrc   int  // version the victim observed: writer tx, -1 = snapshot
}

// seqWaiter is one parked transaction registered on a sequence. Wakeups are
// targeted: a mutation of the entry at position t wakes only waiters whose
// transaction sits after t (readerTx > t) — a publish at position k cannot
// change what a reader at or before k observes, so those stay parked.
//
// The waiter also carries the reader's scan state so a woken reader can
// resume from the entry it blocked on instead of rescanning the whole
// prefix: blockedTx is the pending entry it parked on and deltas the ω̄
// contributions already accumulated above it. The cached state is valid
// only while the already-scanned suffix (blockedTx, readerTx) stays
// untouched; a mutation inside that window sets stale and forces a full
// rescan on resume.
type seqWaiter struct {
	readerTx  int
	blockedTx int
	deltas    u256.Int
	resumable bool // read waiters resume; ablation write-stalls always rescan
	ch        chan struct{}
	woken     bool
	stale     bool
}

// sequence is the multi-version access sequence L_I of one state item.
type sequence struct {
	mu      sync.Mutex
	id      sag.ItemID
	entries []entry // sorted by tx index, at most one per tx
	waiters []*seqWaiter

	// onWake, when set, observes each targeted wakeup delivered by notify:
	// (readerTx, blockedTx, mutTx). Called with s.mu held — implementations
	// must be non-blocking (atomic counter bumps only).
	onWake func(readerTx, blockedTx, mutTx int)

	// rec, when enabled, stamps every resolved read, publish and drop into
	// the flight recorder from under s.mu, so the log order is consistent
	// with what concurrent readers of this item actually observed.
	rec *ScheduleRecorder
}

func newSequence(id sag.ItemID) *sequence {
	return &sequence{id: id}
}

// find returns the index of the entry for tx, or (insertion point, false).
func (s *sequence) find(tx int) (int, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].tx >= tx })
	if i < len(s.entries) && s.entries[i].tx == tx {
		return i, true
	}
	return i, false
}

// ensureEntry returns the entry for tx, inserting a dynamic one when absent.
// Entries live in a value slice (no per-entry allocation); the returned
// pointer is valid only until the next insertion, which can only happen
// under s.mu — callers never hold it across an unlock.
func (s *sequence) ensureEntry(tx int, kind entryKind) *entry {
	i, ok := s.find(tx)
	if ok {
		return &s.entries[i]
	}
	s.entries = append(s.entries, entry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = entry{tx: tx, kind: kind, status: statusPending, dropInc: -1}
	return &s.entries[i]
}

// addPredicted installs a predicted entry from the C-SAG.
func (s *sequence) addPredicted(tx int, kind entryKind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ensureEntry(tx, kind)
	e.kind = kind
	e.predicted = true
}

// readResult is the outcome of a read resolution attempt.
type readResult uint8

const (
	readOK readResult = iota + 1
	readBlocked
	readNeedSnapshot // resolved, but base comes from the snapshot
	readAborted      // the reading incarnation is already dead
)

// tryRead resolves the value transaction tx must observe. snapBase is the
// committed snapshot value of the item (used when no in-block writer
// precedes tx). When the read would block, a registered waiter is returned
// and the caller must retry after its channel closes, passing the waiter
// back as prev so the scan resumes from the entry it blocked on (unless a
// mutation inside the already-scanned window marked it stale). On success
// the reader's entry is marked done so later writers know to abort it
// (Algorithm 3 line 4), and the source the read resolved from is returned
// (writer transaction, or -1 for the committed snapshot).
func (s *sequence) tryRead(tx, inc int, snapBase u256.Int, aborted func() bool, prev *seqWaiter) (u256.Int, readResult, int, *seqWaiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != nil {
		s.removeWaiter(prev)
	}
	if aborted() {
		// Do not mark entries on behalf of a dead incarnation.
		return u256.Int{}, readAborted, -1, nil
	}

	var deltas u256.Int
	start := -1
	if prev != nil && prev.resumable && !prev.stale {
		// Resume where we parked: the cached deltas cover everything above
		// the blocking entry, so re-examine it and continue downward.
		if i, ok := s.find(prev.blockedTx); ok {
			start = i
			deltas = prev.deltas
		}
	}
	if start < 0 {
		pos, _ := s.find(tx)
		start = pos - 1
	}
	for j := start; j >= 0; j-- {
		e := &s.entries[j]
		if e.status == statusDropped {
			continue
		}
		switch e.kind {
		case kindRead:
			continue
		case kindDelta:
			if e.status == statusPending {
				return u256.Int{}, readBlocked, -1, s.addWaiter(tx, e.tx, deltas, true, prev)
			}
			deltas.Add(&deltas, &e.value)
		case kindWrite, kindReadWrite:
			if e.status == statusPending {
				return u256.Int{}, readBlocked, -1, s.addWaiter(tx, e.tx, deltas, true, prev)
			}
			var val u256.Int
			val.Add(&e.value, &deltas)
			s.markRead(tx, inc, e.tx)
			if s.rec.Enabled() {
				s.rec.Record(OpRead, tx, inc, -1, e.tx, s.id, val)
			}
			return val, readOK, e.tx, nil
		}
	}
	var val u256.Int
	val.Add(&snapBase, &deltas)
	s.markRead(tx, inc, -1)
	if s.rec.Enabled() {
		s.rec.Record(OpRead, tx, inc, -1, -1, s.id, val)
	}
	return val, readNeedSnapshot, -1, nil
}

// markRead records a completed read by tx (mutating its entry in place).
// src is the transaction whose version was observed (-1 = snapshot).
func (s *sequence) markRead(tx, inc, src int) {
	e := s.ensureEntry(tx, kindRead)
	e.readDone = true
	e.readInc = inc
	e.readSrcTx = src
}

// addWaiter registers (or re-registers) a waiter parked on the pending
// entry at blockedTx. The prev waiter object is recycled when available to
// keep repeat parks allocation-free. Called with s.mu held.
func (s *sequence) addWaiter(readerTx, blockedTx int, deltas u256.Int, resumable bool, prev *seqWaiter) *seqWaiter {
	w := prev
	if w == nil {
		w = &seqWaiter{}
	}
	w.readerTx = readerTx
	w.blockedTx = blockedTx
	w.deltas = deltas
	w.resumable = resumable
	w.ch = make(chan struct{})
	w.woken = false
	w.stale = false
	s.waiters = append(s.waiters, w)
	return w
}

// removeWaiter deregisters w. Called with s.mu held.
func (s *sequence) removeWaiter(w *seqWaiter) {
	for i, o := range s.waiters {
		if o == w {
			n := len(s.waiters) - 1
			s.waiters[i] = s.waiters[n]
			s.waiters[n] = nil
			s.waiters = s.waiters[:n]
			return
		}
	}
}

// cancelWaiter deregisters w after its reader aborted instead of retrying.
func (s *sequence) cancelWaiter(w *seqWaiter) {
	if w == nil {
		return
	}
	s.mu.Lock()
	s.removeWaiter(w)
	s.mu.Unlock()
}

// notify targets waiters after the entry at position t changed (publish or
// drop). Only waiters whose blocked scan could observe the change are
// woken: a reader parked on blockedTx with index readerTx stops scanning at
// the first pending entry, so mutations strictly below blockedTx cannot
// unblock it and mutations at or after readerTx cannot affect its value.
// Mutations strictly inside (blockedTx, readerTx) additionally invalidate
// the cached delta prefix. Waiters stay registered (flagged woken) until
// the reader deregisters, so staleness accumulates across multiple
// mutations. Called with s.mu held.
func (s *sequence) notify(t int) {
	for _, w := range s.waiters {
		if t >= w.readerTx || t < w.blockedTx {
			continue
		}
		if t > w.blockedTx {
			w.stale = true
		}
		if !w.woken {
			w.woken = true
			close(w.ch)
			if s.onWake != nil {
				s.onWake(w.readerTx, w.blockedTx, t)
			}
		}
	}
}

// priorWritesPending reports whether any lower-indexed transaction still
// has an unfinished write/delta on this item, returning a registered
// waiter when so. Used only by the write-versioning ablation: with
// versioning disabled, a writer must wait for earlier writers like a
// single-version lock. A (true, nil) return means the caller's incarnation
// is already dead.
func (s *sequence) priorWritesPending(tx int, aborted func() bool, prev *seqWaiter) (bool, *seqWaiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != nil {
		s.removeWaiter(prev)
	}
	if aborted() {
		return true, nil
	}
	pos, _ := s.find(tx)
	for j := pos - 1; j >= 0; j-- {
		e := &s.entries[j]
		if e.status == statusPending && e.kind != kindRead {
			return true, s.addWaiter(tx, e.tx, u256.Int{}, false, prev)
		}
	}
	return false, nil
}

// versionWrite publishes a version for tx (Algorithm 3): the entry is
// upgraded/inserted, its value set, waiters woken, and the completed reads
// of later transactions that observed an older version are returned as
// abort victims. delta selects ω̄ semantics (deltas accumulate and never
// invalidate other deltas).
func (s *sequence) versionWrite(tx, inc int, val u256.Int, delta bool) []victim {
	s.mu.Lock()
	defer s.mu.Unlock()

	e := s.ensureEntry(tx, kindWrite)
	if e.dropInc == inc {
		// This incarnation was aborted and its versions pre-dropped.
		return nil
	}
	if delta {
		e.kind = kindDelta
		if e.status == statusDone && e.writeInc == inc {
			// Accumulate further contributions from the same incarnation.
			e.value.Add(&e.value, &val)
		} else {
			e.value = val
		}
	} else {
		if e.readDone || e.kind == kindReadWrite {
			e.kind = kindReadWrite
		} else {
			e.kind = kindWrite
		}
		e.value = val
	}
	e.status = statusDone
	e.writeInc = inc

	if s.rec.Enabled() {
		op := OpPublish
		if delta {
			op = OpDelta
		}
		s.rec.Record(op, tx, inc, -1, -1, s.id, val)
	}
	s.notify(tx)
	// A completed read positioned after this version observed an older one
	// (for deltas: merged without this contribution) — abort it. Delta/delta
	// pairs never invalidate each other, which scanForward honours by
	// skipping ω̄ entries.
	return s.scanForward(tx, inc, e.predicted)
}

// scanForward implements Algorithm 3's abort/grant scan after a publish at
// tx's position: completed reads after it (up to the next write) are stale.
// writerInc and predicted describe the invalidating entry; each victim is
// stamped with them plus the version its stale read had observed, giving
// the abort path its forensic context.
func (s *sequence) scanForward(tx, writerInc int, predicted bool) []victim {
	pos, ok := s.find(tx)
	start := pos
	if ok {
		start = pos + 1
	}
	stamp := func(e *entry) victim {
		return victim{
			tx: e.tx, inc: e.readInc,
			item: s.id, writerInc: writerInc, predicted: predicted,
			readSrc: e.readSrcTx,
		}
	}
	var victims []victim
	for j := start; j < len(s.entries); j++ {
		e := &s.entries[j]
		// Any completed read after the publish position observed an older
		// version and is stale — whatever the entry's write kind. A predicted
		// ω entry carries a completed read when the analysis missed the read
		// part (stale or corrupted C-SAG) and the transaction read before
		// publishing (the versionWrite upgrade to θ hasn't happened yet); a ω̄
		// entry carries one after degradeRead resolved the delta's true base.
		// Skipping those on kind alone loses the invalidation and commits
		// values computed from stale reads. The same holds for an entry whose
		// write was dropped: an aborted writer's next incarnation re-reads
		// through its own dropped version before it republishes, and that
		// read is stale all the same.
		if e.readDone {
			victims = append(victims, stamp(e))
		}
		if e.status == statusDropped {
			continue // a dropped write shields no later reader
		}
		switch e.kind {
		case kindWrite, kindReadWrite:
			// Later readers observed (or will observe) this entry's write,
			// not ours; cascading aborts handle them if it dies.
			return victims
		}
	}
	return victims
}

// dropVersion invalidates tx's version (aborted incarnation or a predicted
// write that never materialized): the entry is marked dropped, waiters are
// woken to re-resolve, and stale readers are returned (Algorithm 4, lines
// 9-13).
func (s *sequence) dropVersion(tx, inc int) []victim {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Recorded at the top, unconditionally: the replayer gates each
	// dropVersion call, so the log must carry one event per call — even
	// calls that find nothing to invalidate.
	if s.rec.Enabled() {
		s.rec.Record(OpDrop, tx, inc, -1, -1, s.id, u256.Int{})
	}
	i, ok := s.find(tx)
	if !ok {
		return nil
	}
	e := &s.entries[i]
	e.dropInc = inc
	if e.status == statusDone && e.writeInc != inc {
		// A newer incarnation already republished; leave its version alone.
		return nil
	}
	hadValue := e.status == statusDone
	e.status = statusDropped
	s.notify(tx)
	if !hadValue {
		return nil
	}
	return s.scanForward(tx, inc, e.predicted)
}

// resetRead clears a stale read mark after its incarnation aborted, keeping
// future scans from re-targeting the dead incarnation.
func (s *sequence) resetRead(tx, inc int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(tx)
	if !ok {
		return
	}
	e := &s.entries[i]
	if e.readDone && e.readInc == inc {
		e.readDone = false
	}
}

// finalValue resolves the committed value of the item after all
// transactions finished: the last finished absolute write plus any deltas
// after it; ok is false when nothing in the block wrote the item.
func (s *sequence) finalValue(snapBase u256.Int) (u256.Int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var deltas u256.Int
	wrote := false
	for j := len(s.entries) - 1; j >= 0; j-- {
		e := &s.entries[j]
		if e.status != statusDone {
			continue
		}
		switch e.kind {
		case kindDelta:
			deltas.Add(&deltas, &e.value)
			wrote = true
		case kindWrite, kindReadWrite:
			var val u256.Int
			val.Add(&e.value, &deltas)
			return val, true
		}
	}
	if !wrote {
		return u256.Int{}, false
	}
	var val u256.Int
	val.Add(&snapBase, &deltas)
	return val, true
}

// debugString renders the sequence like the paper's Fig. 4 rectangles.
func (s *sequence) debugString() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.id.String() + ":"
	for _, e := range s.entries {
		st := "N"
		switch e.status {
		case statusDone:
			st = "T"
		case statusDropped:
			st = "X"
		}
		out += fmt.Sprintf(" T%d:%s[%s]", e.tx, e.kind, st)
	}
	return out
}
