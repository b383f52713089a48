// Package lock implements the centralized partition-granule lock table of
// the paper's control node (§2.2).
//
// Locking granules are partitions. A read step needs a shared (S) lock, a
// write step an exclusive (X) lock; X conflicts with both S and X. Every
// transaction registers *lock-declarations* for all of its steps at start;
// a declaration carries the step's due(s) value ("due(sj) is attached to
// the lock-declaration of sj in the lock table"). When the transaction
// reaches a step, the declaration is replaced by a lock-request and, once
// granted, by a held lock. All locks are held until commitment (strict
// locking for recovery) and released together at commit.
//
// The table is pure bookkeeping: granting policy (blocking, cautious
// tests, WTPG optimization) lives in the schedulers.
//
// The steady state allocates nothing: holders are a small slice sorted
// by transaction id, a transaction's footprint is a deduplicated slice of
// partitions, the entries and footprints a Release empties are kept on
// table-local free lists for the next Declare, and the partitions
// Release returns are cut from chunks shared by many releases.
package lock

import (
	"cmp"
	"fmt"
	"slices"

	"batsched/internal/txn"
)

// Decl is a pending lock-declaration: transaction id, the step it belongs
// to, the access mode, and the declared due(s) value of the step.
type Decl struct {
	Txn  txn.ID
	Step int
	Mode txn.Mode
	Due  float64
}

// String renders the declaration for diagnostics.
func (d Decl) String() string {
	return fmt.Sprintf("%v/step%d:%v(due=%g)", d.Txn, d.Step, d.Mode, d.Due)
}

// holder is a granted lock: the transaction and the strongest mode it
// holds.
type holder struct {
	id   txn.ID
	mode txn.Mode
}

func (h holder) String() string { return fmt.Sprintf("%v:%v", h.id, h.mode) }

type entry struct {
	holders []holder // granted locks, sorted by transaction id
	decls   []Decl   // pending declarations in registration order
}

// find returns the index of id's lock in e.holders, or the index at
// which it would be inserted.
func (e *entry) find(id txn.ID) (int, bool) {
	return slices.BinarySearchFunc(e.holders, id, func(h holder, id txn.ID) int { return cmp.Compare(h.id, id) })
}

// conflicts counts the pending declarations of transactions other than
// id that conflict with mode.
func (e *entry) conflicts(id txn.ID, mode txn.Mode) int {
	n := 0
	for _, d := range e.decls {
		if d.Txn != id && mode.Conflicts(d.Mode) {
			n++
		}
	}
	return n
}

// Table is the control node's lock table. The zero value is not usable;
// use NewTable.
type Table struct {
	parts map[txn.PartitionID]*entry
	// touched holds each live transaction's footprint — the partitions it
	// has holds or declarations on, deduplicated — so Release is O(own
	// partitions).
	touched map[txn.ID][]txn.PartitionID

	// Entries and footprints emptied by Release, reused by Declare. Each
	// list is bounded by the peak number of its items ever live at once.
	freeEntries    []*entry
	freeFootprints [][]txn.PartitionID

	// freedChunk is carved into the slices Release returns. The table
	// never writes a carved range again, so callers may keep them; a full
	// chunk is replaced, not reused, and the GC frees it once no caller
	// holds a slice of it.
	freedChunk []txn.PartitionID
}

// freedChunkLen is the capacity of a fresh freedChunk: one allocation
// serves that many freed partitions.
const freedChunkLen = 256

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{
		parts:   make(map[txn.PartitionID]*entry),
		touched: make(map[txn.ID][]txn.PartitionID),
	}
}

func (tb *Table) entry(p txn.PartitionID) *entry {
	e := tb.parts[p]
	if e == nil {
		if n := len(tb.freeEntries); n > 0 {
			e = tb.freeEntries[n-1]
			tb.freeEntries = tb.freeEntries[:n-1]
		} else {
			e = new(entry)
		}
		tb.parts[p] = e
	}
	return e
}

// Declare registers lock-declarations for every step of t, using t's
// declared I/O demands for the due values. It returns an error if t is
// already known to the table.
func (tb *Table) Declare(t *txn.T) error {
	if _, ok := tb.touched[t.ID]; ok {
		return fmt.Errorf("lock: %v already declared", t.ID)
	}
	var fp []txn.PartitionID
	if n := len(tb.freeFootprints); n > 0 {
		fp = tb.freeFootprints[n-1]
		tb.freeFootprints = tb.freeFootprints[:n-1]
	}
	for i, s := range t.Steps {
		e := tb.entry(s.Part)
		e.decls = append(e.decls, Decl{Txn: t.ID, Step: i, Mode: s.Mode, Due: t.Due(i)})
		if !slices.Contains(fp, s.Part) {
			fp = append(fp, s.Part)
		}
	}
	// A zero-step transaction is recorded too, so Release/Known work.
	tb.touched[t.ID] = fp
	return nil
}

// Known reports whether id currently has declarations or holds.
func (tb *Table) Known(id txn.ID) bool {
	_, ok := tb.touched[id]
	return ok
}

// Blocked returns the transactions (other than id) holding locks on p that
// conflict with mode, sorted by id. An empty result means the request is
// not blocked.
func (tb *Table) Blocked(id txn.ID, p txn.PartitionID, mode txn.Mode) []txn.ID {
	return tb.AppendBlocked(nil, id, p, mode)
}

// AppendBlocked is Blocked appending to dst: it returns dst extended by
// the conflicting holders in id order, so a caller reusing dst's storage
// allocates nothing.
func (tb *Table) AppendBlocked(dst []txn.ID, id txn.ID, p txn.PartitionID, mode txn.Mode) []txn.ID {
	if e := tb.parts[p]; e != nil {
		for _, h := range e.holders {
			if h.id != id && mode.Conflicts(h.mode) {
				dst = append(dst, h.id)
			}
		}
	}
	return dst
}

// IsBlocked reports whether a request by id on p in the given mode
// conflicts with any held lock of another transaction. Unlike Blocked it
// allocates nothing.
func (tb *Table) IsBlocked(id txn.ID, p txn.PartitionID, mode txn.Mode) bool {
	e := tb.parts[p]
	if e == nil {
		return false
	}
	for _, h := range e.holders {
		if h.id != id && mode.Conflicts(h.mode) {
			return true
		}
	}
	return false
}

// EachConflictingDecl visits the pending declarations of other
// transactions on p that conflict with mode, in registration order,
// without allocating.
func (tb *Table) EachConflictingDecl(id txn.ID, p txn.PartitionID, mode txn.Mode, fn func(Decl)) {
	e := tb.parts[p]
	if e == nil {
		return
	}
	for _, d := range e.decls {
		if d.Txn != id && mode.Conflicts(d.Mode) {
			fn(d)
		}
	}
}

// ConflictingDecls returns the pending declarations of other transactions
// on p that conflict with mode — the paper's C(q) for a request q of
// transaction id in the given mode. Results are in registration order.
func (tb *Table) ConflictingDecls(id txn.ID, p txn.PartitionID, mode txn.Mode) []Decl {
	return tb.AppendConflictingDecls(nil, id, p, mode)
}

// AppendConflictingDecls is ConflictingDecls appending to dst, so a
// caller reusing dst's storage allocates nothing.
func (tb *Table) AppendConflictingDecls(dst []Decl, id txn.ID, p txn.PartitionID, mode txn.Mode) []Decl {
	tb.EachConflictingDecl(id, p, mode, func(d Decl) { dst = append(dst, d) })
	return dst
}

// Grant converts the declaration of (id, step) on p into a held lock,
// upgrading the holder's mode if the transaction already holds a weaker
// lock on p. It returns an error if the declaration does not exist or the
// grant would conflict with another holder (the caller must check Blocked
// first).
func (tb *Table) Grant(id txn.ID, p txn.PartitionID, step int) error {
	e := tb.parts[p]
	if e == nil {
		return fmt.Errorf("lock: grant %v on unknown partition %v", id, p)
	}
	idx := slices.IndexFunc(e.decls, func(d Decl) bool { return d.Txn == id && d.Step == step })
	if idx < 0 {
		return fmt.Errorf("lock: no declaration for %v step %d on %v", id, step, p)
	}
	mode := e.decls[idx].Mode
	if tb.IsBlocked(id, p, mode) {
		return fmt.Errorf("lock: grant %v %v on %v conflicts with holders %v", id, mode, p, tb.Blocked(id, p, mode))
	}
	e.decls = slices.Delete(e.decls, idx, idx+1)
	if i, held := e.find(id); !held {
		e.holders = slices.Insert(e.holders, i, holder{id, mode})
	} else if mode == txn.Write {
		e.holders[i].mode = txn.Write
	}
	return nil
}

// HeldMode returns the mode id holds on p, if any.
func (tb *Table) HeldMode(id txn.ID, p txn.PartitionID) (txn.Mode, bool) {
	e := tb.parts[p]
	if e == nil {
		return 0, false
	}
	if i, ok := e.find(id); ok {
		return e.holders[i].mode, true
	}
	return 0, false
}

// Release drops all holds and remaining declarations of id (commit, or
// abort before start). It returns the partitions on which id held locks,
// sorted — the partitions whose waiters may now be grantable. The table
// never writes the returned slice again (it is nil when id held
// nothing), so the caller may retain it.
func (tb *Table) Release(id txn.ID) []txn.PartitionID {
	fp, ok := tb.touched[id]
	if !ok {
		return nil
	}
	delete(tb.touched, id)
	held := fp[:0] // compacted in place: writes trail the reads
	for _, p := range fp {
		e := tb.parts[p]
		if i, ok := e.find(id); ok {
			e.holders = slices.Delete(e.holders, i, i+1)
			held = append(held, p)
		}
		e.decls = slices.DeleteFunc(e.decls, func(d Decl) bool { return d.Txn == id })
		if len(e.holders) == 0 && len(e.decls) == 0 {
			delete(tb.parts, p)
			tb.freeEntries = append(tb.freeEntries, e)
		}
	}
	var freed []txn.PartitionID
	if len(held) > 0 {
		freed = tb.carve(held)
		slices.Sort(freed)
	}
	if cap(fp) > 0 {
		tb.freeFootprints = append(tb.freeFootprints, fp[:0])
	}
	return freed
}

// carve returns a copy of src cut from freedChunk, capped so that an
// append by the caller reallocates instead of writing past it.
func (tb *Table) carve(src []txn.PartitionID) []txn.PartitionID {
	if cap(tb.freedChunk)-len(tb.freedChunk) < len(src) {
		tb.freedChunk = make([]txn.PartitionID, 0, max(freedChunkLen, len(src)))
	}
	n := len(tb.freedChunk)
	tb.freedChunk = append(tb.freedChunk, src...)
	return tb.freedChunk[n:len(tb.freedChunk):len(tb.freedChunk)]
}

// DeclConflictDegree returns, for each pending declaration of t (by step
// index), how many pending declarations of other transactions it conflicts
// with. Used for the K-conflict admission test of the K-WTPG scheduler.
func (tb *Table) DeclConflictDegree(id txn.ID) map[int]int {
	out := make(map[int]int)
	for _, p := range tb.touched[id] {
		e := tb.parts[p]
		for _, d := range e.decls {
			if d.Txn == id {
				out[d.Step] += e.conflicts(id, d.Mode)
			}
		}
	}
	return out
}

// WouldExceedK reports whether registering t's declarations would cause
// any pending declaration (t's own or an existing transaction's) to
// conflict with more than k declarations. It must be called before
// Declare(t). It allocates nothing.
func (tb *Table) WouldExceedK(t *txn.T, k int) bool {
	// t's own declarations: the conflicting ones already on the partition.
	for _, s := range t.Steps {
		if e := tb.parts[s.Part]; e != nil && e.conflicts(t.ID, s.Mode) > k {
			return true
		}
	}
	// An existing declaration d gains one conflict per step of t on its
	// partition that conflicts with d, on top of its current degree.
	for i, s := range t.Steps {
		e := tb.parts[s.Part]
		if e == nil || slices.ContainsFunc(t.Steps[:i], func(o txn.Step) bool { return o.Part == s.Part }) {
			continue // idle, or already checked for an earlier step
		}
		for _, d := range e.decls {
			if d.Txn == t.ID {
				continue
			}
			gained := 0
			for _, o := range t.Steps {
				if o.Part == s.Part && o.Mode.Conflicts(d.Mode) {
					gained++
				}
			}
			if gained > 0 && e.conflicts(d.Txn, d.Mode)+gained > k {
				return true
			}
		}
	}
	return false
}

// PendingDecls returns the pending declarations of id in step order.
func (tb *Table) PendingDecls(id txn.ID) []Decl {
	var out []Decl
	for _, p := range tb.touched[id] {
		for _, d := range tb.parts[p].decls {
			if d.Txn == id {
				out = append(out, d)
			}
		}
	}
	slices.SortFunc(out, func(a, b Decl) int { return cmp.Compare(a.Step, b.Step) })
	return out
}

// Holders returns the transactions holding locks on p, sorted by id.
func (tb *Table) Holders(p txn.PartitionID) []txn.ID {
	e := tb.parts[p]
	if e == nil {
		return nil
	}
	out := make([]txn.ID, len(e.holders))
	for i, h := range e.holders {
		out[i] = h.id
	}
	return out
}

// CheckInvariants verifies that no two conflicting locks are held
// simultaneously on any partition and that every holder list is in
// strict id order. It returns the first violation found. Intended for
// tests and the simulator's self-checking mode.
func (tb *Table) CheckInvariants() error {
	for p, e := range tb.parts {
		writers := 0
		for i, h := range e.holders {
			if i > 0 && e.holders[i-1].id >= h.id {
				return fmt.Errorf("lock: holders on %v out of id order: %v", p, e.holders)
			}
			if h.mode == txn.Write {
				writers++
			}
		}
		if writers > 1 || (writers == 1 && len(e.holders) > 1) {
			return fmt.Errorf("lock: conflicting holders on %v: %v", p, e.holders)
		}
	}
	return nil
}
