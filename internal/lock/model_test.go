package lock

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"batsched/internal/txn"
)

// model is a map-based reference lock table: the plain implementation the
// Table must agree with, kept as the oracle of the differential test.
type model struct {
	holders map[txn.PartitionID]map[txn.ID]txn.Mode
	decls   map[txn.PartitionID][]Decl // registration order
	known   map[txn.ID]bool
}

func newModel() *model {
	return &model{
		holders: map[txn.PartitionID]map[txn.ID]txn.Mode{},
		decls:   map[txn.PartitionID][]Decl{},
		known:   map[txn.ID]bool{},
	}
}

func (m *model) declare(t *txn.T) bool {
	if m.known[t.ID] {
		return false
	}
	m.known[t.ID] = true
	for i, s := range t.Steps {
		m.decls[s.Part] = append(m.decls[s.Part], Decl{Txn: t.ID, Step: i, Mode: s.Mode, Due: t.Due(i)})
	}
	return true
}

func (m *model) blocked(id txn.ID, p txn.PartitionID, mode txn.Mode) []txn.ID {
	var out []txn.ID
	for h, hm := range m.holders[p] {
		if h != id && mode.Conflicts(hm) {
			out = append(out, h)
		}
	}
	slices.Sort(out)
	return out
}

func (m *model) grant(id txn.ID, p txn.PartitionID, step int) bool {
	ds := m.decls[p]
	idx := slices.IndexFunc(ds, func(d Decl) bool { return d.Txn == id && d.Step == step })
	if idx < 0 || len(m.blocked(id, p, ds[idx].Mode)) > 0 {
		return false
	}
	mode := ds[idx].Mode
	m.decls[p] = append(ds[:idx:idx], ds[idx+1:]...)
	if m.holders[p] == nil {
		m.holders[p] = map[txn.ID]txn.Mode{}
	}
	if held, ok := m.holders[p][id]; !ok || held == txn.Read {
		m.holders[p][id] = mode
	}
	return true
}

func (m *model) release(id txn.ID) []txn.PartitionID {
	var freed []txn.PartitionID
	for p, hs := range m.holders {
		if _, ok := hs[id]; ok {
			delete(hs, id)
			freed = append(freed, p)
		}
	}
	for p, ds := range m.decls {
		m.decls[p] = slices.DeleteFunc(ds, func(d Decl) bool { return d.Txn == id })
	}
	delete(m.known, id)
	slices.Sort(freed)
	return freed
}

func (m *model) holderIDs(p txn.PartitionID) []txn.ID {
	var out []txn.ID
	for h := range m.holders[p] {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

func (m *model) conflictingDecls(id txn.ID, p txn.PartitionID, mode txn.Mode) []Decl {
	var out []Decl
	for _, d := range m.decls[p] {
		if d.Txn != id && mode.Conflicts(d.Mode) {
			out = append(out, d)
		}
	}
	return out
}

// degrees maps every pending declaration to the number of other
// transactions' declarations on its partition that it conflicts with.
func (m *model) degrees() map[[2]int]int {
	out := map[[2]int]int{}
	for p, ds := range m.decls {
		for _, d := range ds {
			out[[2]int{int(d.Txn), d.Step}] = len(m.conflictingDecls(d.Txn, p, d.Mode))
		}
	}
	return out
}

func (m *model) declConflictDegree(id txn.ID) map[int]int {
	out := map[int]int{}
	for k, n := range m.degrees() {
		if txn.ID(k[0]) == id {
			out[k[1]] = n
		}
	}
	return out
}

// wouldExceedK declares t on a copy and reports whether any declaration
// whose degree t's arrival raised (t's own included) now exceeds k.
func (m *model) wouldExceedK(t *txn.T, k int) bool {
	before := m.degrees()
	c := newModel()
	for p, ds := range m.decls {
		c.decls[p] = slices.Clone(ds)
	}
	c.declare(t)
	for key, n := range c.degrees() {
		if old, ok := before[key]; (!ok || n > old) && n > k {
			return true
		}
	}
	return false
}

func (m *model) pendingDecls(id txn.ID) []Decl {
	var out []Decl
	for _, ds := range m.decls {
		for _, d := range ds {
			if d.Txn == id {
				out = append(out, d)
			}
		}
	}
	slices.SortFunc(out, func(a, b Decl) int { return cmp.Compare(a.Step, b.Step) })
	return out
}

func randTxn(rng *rand.Rand, id txn.ID, parts int) *txn.T {
	ss := make([]txn.Step, rng.Intn(5)) // zero-step transactions included
	for i := range ss {
		ss[i] = txn.Step{Mode: txn.Mode(rng.Intn(2)), Part: txn.PartitionID(rng.Intn(parts)), Cost: float64(1 + rng.Intn(4))}
	}
	return txn.New(id, ss)
}

// TestTableMatchesModel drives the Table and the map model through the
// same seeded random sequences of every operation and compares each
// result, then checks the table's invariants. Slices Release returned
// earlier are re-checked after every operation: the caller may keep them.
func TestTableMatchesModel(t *testing.T) {
	const parts, ids = 6, 24
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, m := NewTable(), newModel()
		txns := map[txn.ID]*txn.T{}
		type kept struct{ got, want []txn.PartitionID }
		var retained []kept
		for op := 0; op < 600; op++ {
			id := txn.ID(1 + rng.Intn(ids))
			p := txn.PartitionID(rng.Intn(parts))
			mode := txn.Mode(rng.Intn(2))
			switch rng.Intn(9) {
			case 0, 1: // Declare (a known id must be refused)
				tx := txns[id]
				if !m.known[id] {
					tx = randTxn(rng, id, parts)
					txns[id] = tx
				}
				if got, want := tb.Declare(tx) == nil, m.declare(tx); got != want {
					t.Fatalf("seed %d op %d: Declare(%v) ok=%v, model %v", seed, op, tx, got, want)
				}
			case 2, 3: // Grant, legal or not
				step := rng.Intn(5)
				if tx := txns[id]; tx != nil && step < len(tx.Steps) && rng.Intn(4) > 0 {
					p = tx.Steps[step].Part
				}
				if got, want := tb.Grant(id, p, step) == nil, m.grant(id, p, step); got != want {
					t.Fatalf("seed %d op %d: Grant(%v,%v,%d) ok=%v, model %v", seed, op, id, p, step, got, want)
				}
			case 4: // Release
				got, want := tb.Release(id), m.release(id)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Release(%v) = %v, model %v", seed, op, id, got, want)
				}
				retained = append(retained, kept{got, want})
			case 5: // Blocked, IsBlocked, Holders, HeldMode
				want := m.blocked(id, p, mode)
				if got := tb.Blocked(id, p, mode); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Blocked(%v,%v,%v) = %v, model %v", seed, op, id, p, mode, got, want)
				}
				if got := tb.IsBlocked(id, p, mode); got != (len(want) > 0) {
					t.Fatalf("seed %d op %d: IsBlocked(%v,%v,%v) = %v, model %v", seed, op, id, p, mode, got, want)
				}
				if got, want := tb.Holders(p), m.holderIDs(p); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Holders(%v) = %v, model %v", seed, op, p, got, want)
				}
				gotM, gotOK := tb.HeldMode(id, p)
				wantM, wantOK := m.holders[p][id]
				if gotM != wantM || gotOK != wantOK {
					t.Fatalf("seed %d op %d: HeldMode(%v,%v) = %v,%v, model %v,%v", seed, op, id, p, gotM, gotOK, wantM, wantOK)
				}
			case 6: // ConflictingDecls
				if got, want := tb.ConflictingDecls(id, p, mode), m.conflictingDecls(id, p, mode); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: ConflictingDecls(%v,%v,%v) = %v, model %v", seed, op, id, p, mode, got, want)
				}
			case 7: // WouldExceedK for a transaction not yet declared
				if m.known[id] {
					continue
				}
				tx, k := randTxn(rng, id, parts), rng.Intn(4)
				if got, want := tb.WouldExceedK(tx, k), m.wouldExceedK(tx, k); got != want {
					t.Fatalf("seed %d op %d: WouldExceedK(%v, %d) = %v, model %v", seed, op, tx, k, got, want)
				}
			case 8: // DeclConflictDegree, PendingDecls, Known
				got, want := tb.DeclConflictDegree(id), m.declConflictDegree(id)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: DeclConflictDegree(%v) = %v, model %v", seed, op, id, got, want)
				}
				for step, n := range want {
					if got[step] != n {
						t.Fatalf("seed %d op %d: DeclConflictDegree(%v) = %v, model %v", seed, op, id, got, want)
					}
				}
				if got, want := tb.PendingDecls(id), m.pendingDecls(id); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: PendingDecls(%v) = %v, model %v", seed, op, id, got, want)
				}
				if got, want := tb.Known(id), m.known[id]; got != want {
					t.Fatalf("seed %d op %d: Known(%v) = %v, model %v", seed, op, id, got, want)
				}
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			for _, r := range retained {
				if !slices.Equal(r.got, r.want) {
					t.Fatalf("seed %d op %d: a retained Release result changed to %v, want %v", seed, op, r.got, r.want)
				}
			}
		}
	}
}

// TestSteadyStateAllocatesNothing pins the hot path's allocation count: once
// the table has warmed up, a full Declare → IsBlocked → Grant → Release
// cycle, and the K-conflict admission test, reuse storage the table
// already owns.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	tb := benchTable(64)
	tx := mk(9999, r(3, 1), w(20, 1), w(3, 1))
	cycle := func() {
		if tb.WouldExceedK(tx, 1000) {
			t.Fatal("admission refused")
		}
		if err := tb.Declare(tx); err != nil {
			t.Fatal(err)
		}
		for i, s := range tx.Steps {
			if tb.IsBlocked(tx.ID, s.Part, s.Mode) {
				t.Fatalf("step %d blocked", i)
			}
			if err := tb.Grant(tx.ID, s.Part, i); err != nil {
				t.Fatal(err)
			}
		}
		if freed := tb.Release(tx.ID); len(freed) != 2 {
			t.Fatalf("freed %v, want 2 partitions", freed)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("steady-state cycle allocates %v times, want 0", n)
	}
}
