package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fdp/internal/ref"
)

// degreeState names what w keeps: "none" or "ledger".
func degreeState(w *World) string {
	if w.ledger != nil {
		return "ledger"
	}
	return "none"
}

// wantDegree is RelevantDegree from first principles: a built PG and the
// hibernating set recomputed on it.
func wantDegree(w *World, u ref.Ref) (int, bool) {
	pg := w.PG()
	hib := referenceHibernating(w)
	if !pg.HasNode(u) || hib.Has(u) {
		return 0, false
	}
	n := 0
	for _, v := range pg.UndirectedNeighbors(u) {
		if !hib.Has(v) {
			n++
		}
	}
	return n, true
}

// checkEveryDegree compares every live process's RelevantDegree with
// wantDegree: a leaver's comes from the ledger, a stayer's from RelevantPG.
func checkEveryDegree(t *testing.T, w *World, where string) {
	t.Helper()
	for _, r := range w.Refs() {
		if w.LifeOf(r) == Gone {
			continue
		}
		gd, gok := w.RelevantDegree(r)
		if wd, wok := wantDegree(w, r); gd != wd || gok != wok {
			t.Fatalf("%s: RelevantDegree(%v) of a %v process = %d, %v; rebuilt PG says %d, %v",
				where, r, w.ModeOf(r), gd, gok, wd, wok)
		}
	}
}

// TestLedgerDegreeMatchesRebuild: under every scheduler and both variants,
// after every step and mid-action, every live process's RelevantDegree
// equals its degree in a built PG with the hibernating set derived from
// first principles, while processes sleep and while none does.
func TestLedgerDegreeMatchesRebuild(t *testing.T) {
	for si, sc := range chaosSchedulers {
		for _, variant := range []Variant{FDP, FSP} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, variant), func(t *testing.T) {
				asleep, awake := 0, 0
				for k := int64(0); k < 4; k++ {
					seed := int64(si)*97 + int64(variant)*13 + 11 + 1000*k
					runChaos(seed, 12, 400, variant, checkOracle{t, checkEveryDegree}, sc.mk(seed), nil, func(w *World) {
						checkEveryDegree(t, w, fmt.Sprintf("seed %d, step %d", seed, w.Steps()))
						if w.asleep > 0 {
							asleep++
						} else {
							awake++
						}
					})
				}
				if asleep == 0 || awake == 0 {
					t.Fatalf("%d steps with a process asleep, %d with none: want both", asleep, awake)
				}
			})
		}
	}
}

// checkHostedRows compares every row of w — a live leaver's, or a leaver's
// hosted elsewhere — with a model: the leaver's neighbours in a built PG,
// plus the processes hosted elsewhere that it stores or has queued messages
// carry; for a leaver hosted elsewhere, the live processes whose stores or
// queued messages name it.
func checkHostedRows(t *testing.T, w *World, where string) {
	t.Helper()
	pg := w.PG()
	// names lists, per live process, what its stores and queued messages
	// reference.
	names := func(p *process) []ref.Ref {
		out := slices.Clone(p.proto.Refs())
		for _, m := range p.ch {
			for _, ri := range m.Refs {
				out = append(out, ri.Ref)
			}
		}
		return out
	}
	want := make(map[ref.Ref][]ref.Ref)
	for i, m := range w.elsewhere {
		if m == Leaving {
			want[ref.ByIndex(i)] = nil
		}
	}
	for _, p := range w.procs {
		if p == nil || p.life == Gone {
			continue
		}
		if p.mode == Leaving {
			want[p.id] = append(want[p.id], pg.UndirectedNeighbors(p.id)...)
		}
		for _, r := range names(p) {
			m := w.hostedElsewhere(r)
			if p.mode == Leaving && m != Absent {
				want[p.id] = append(want[p.id], r)
			}
			if m == Leaving {
				want[r] = append(want[r], p.id)
			}
		}
	}
	for u, nb := range want {
		ref.Sort(nb)
		nb = slices.Compact(nb)
		var got []ref.Ref
		for _, e := range w.LeaverRow(u) {
			got = append(got, e.Key)
		}
		ref.Sort(got)
		if !slices.Equal(got, nb) {
			t.Fatalf("%s: row of %v = %v, model %v", where, u, got, nb)
		}
	}
}

// TestLedgerRowsCountProcessesHostedElsewhere: in chaos worlds where half
// of the processes are hosted elsewhere, after every step and mid-action,
// every leaver's row — a leaver of the world's, or one hosted elsewhere —
// equals the model built from PG() plus the pairs with the processes hosted
// elsewhere.
func TestLedgerRowsCountProcessesHostedElsewhere(t *testing.T) {
	elsewhere := func(i int) bool { return i%3 == 1 || i%6 == 3 }
	for si, sc := range chaosSchedulers {
		for _, variant := range []Variant{FDP, FSP} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, variant), func(t *testing.T) {
				seed := int64(si)*53 + int64(variant)*7 + 2
				runChaos(seed, 12, 400, variant, checkOracle{t, checkHostedRows}, sc.mk(seed), elsewhere, func(w *World) {
					checkHostedRows(t, w, fmt.Sprintf("step %d", w.Steps()))
				})
			})
		}
	}
}

// ledgerWorld is a sealed world on the ledger: a, b, c leave, d, e, f stay;
// stored references, one duplicate, and a message in flight.
func ledgerWorld(t *testing.T) (*World, []ref.Ref, []*fixtureProto) {
	t.Helper()
	space := ref.NewSpace()
	n := space.NewN(6)
	w := NewWorld(nil)
	fx := make([]*fixtureProto, len(n))
	for i, r := range n {
		fx[i] = newFixture()
		mode := Staying
		if i < 3 {
			mode = Leaving
		}
		w.AddProcess(r, mode, fx[i])
	}
	a, b, c, d, e, f := 0, 1, 2, 3, 4, 5
	for _, p := range [][2]int{{a, b}, {a, d}, {b, e}, {c, a}, {d, c}, {e, f}, {f, a}, {d, e}} {
		fx[p[0]].refs.Add(n[p[1]])
	}
	w.Enqueue(n[b], NewMessage("m", RefInfo{Ref: n[c]}, RefInfo{Ref: n[c]}, RefInfo{Ref: n[f]}))
	w.SealInitialState()
	if st := degreeState(w); st != "ledger" {
		t.Fatalf("sealed world on %q, want the ledger", st)
	}
	return w, n, fx
}

// TestLedgerFallbacks pins which events drop the ledger and which keep it,
// and that every degree, NIDEC verdict and the Lemma 2 check are right
// afterwards.
func TestLedgerFallbacks(t *testing.T) {
	exit := func(w *World, fx *fixtureProto, r ref.Ref) {
		fx.onTimeout = func(ctx Context, _ *fixtureProto) { ctx.Exit() }
		w.Execute(Action{Proc: r, IsTimeout: true})
	}
	for _, tc := range []struct {
		name string
		do   func(w *World, n []ref.Ref, fx []*fixtureProto)
		want string
	}{
		{"leaver exit keeps the ledger", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			exit(w, fx[0], n[0])
		}, "ledger"},
		{"leaver exit with leaving neighbours", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			exit(w, fx[2], n[2])
			exit(w, fx[1], n[1])
		}, "ledger"},
		{"stayer exit drops the ledger", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			exit(w, fx[3], n[3])
		}, "none"},
		{"MarkGone of a stayer drops the ledger", func(w *World, n []ref.Ref, _ []*fixtureProto) {
			w.MarkGone(n[4])
		}, "none"},
		{"ForceAsleep keeps the ledger", func(w *World, n []ref.Ref, _ []*fixtureProto) {
			w.ForceAsleep(n[5])
			w.RelevantDegree(n[0])
		}, "ledger"},
		{"a stayer's degree keeps the ledger", func(w *World, n []ref.Ref, _ []*fixtureProto) {
			w.RelevantDegree(n[3])
		}, "ledger"},
		{"PG keeps the ledger", func(w *World, _ []ref.Ref, _ []*fixtureProto) {
			w.PG()
		}, "ledger"},
		{"Relevant keeps the ledger", func(w *World, _ []ref.Ref, _ []*fixtureProto) {
			w.Relevant()
		}, "ledger"},
		{"a degree query after a stayer's exit reseeds the ledger", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			exit(w, fx[3], n[3])
			w.RelevantDegree(n[0])
		}, "ledger"},
		{"InvalidatePG drops the ledger", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			fx[4].refs.Add(n[1]) // outside any action
			w.InvalidatePG()
		}, "none"},
		{"AddProcess drops the ledger", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			g := ref.ByIndex(len(n)) // the next reference the space would mint
			fx[0].refs.Add(g)        // held before g exists: no edge yet
			w.Execute(Action{Proc: n[0], IsTimeout: true})
			w.AddProcess(g, Leaving, newFixture())
		}, "none"},
		{"foreign, ⊥ and own references are no edges", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			for _, id := range []uint32{0, 1 << 31, ^uint32(0), 1 << 30} {
				fx[0].refs.Add(ref.FromWire(id))
				w.Enqueue(n[1], NewMessage("m", RefInfo{Ref: ref.FromWire(id)}, RefInfo{Ref: n[0]}))
			}
			fx[0].refs.Add(n[0]) // and its own
			fx[1].onTimeout = func(ctx Context, _ *fixtureProto) {
				ctx.Send(n[2], NewMessage("m", RefInfo{Ref: ref.FromWire(1 << 31)}, RefInfo{Ref: ref.Nil}, RefInfo{Ref: n[2]}))
			}
			w.Execute(Action{Proc: n[0], IsTimeout: true})
			w.Execute(Action{Proc: n[1], IsTimeout: true})
			w.Execute(Action{Proc: n[1], MsgIndex: 0})
		}, "ledger"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, n, fx := ledgerWorld(t)
			tc.do(w, n, fx)
			if st := degreeState(w); st != tc.want {
				t.Fatalf("world on %q, want %q", st, tc.want)
			}
			checkEveryDegree(t, w, tc.name)
			checkVerdicts(t, w, tc.name)
		})
	}
}

// TestLedgerMidActionQuery: a degree asked from inside an action sees the
// references the acting process stored earlier in the same action.
func TestLedgerMidActionQuery(t *testing.T) {
	w, n, fx := ledgerWorld(t)
	var got, want int
	fx[0].onTimeout = func(ctx Context, f *fixtureProto) {
		f.refs.Add(n[4])
		f.refs.Add(n[2])
		f.refs.Remove(n[1])
		got, _ = w.RelevantDegree(n[0])
		want, _ = wantDegree(w, n[0])
	}
	w.Execute(Action{Proc: n[0], IsTimeout: true})
	if got != want {
		t.Fatalf("mid-action degree %d, rebuilt %d", got, want)
	}
	checkEveryDegree(t, w, "after the action")
}

// TestNIDECMidActionQuery: a NIDEC verdict asked from inside an action sees
// the edge into the leaver that the acting process stored earlier in the
// same action.
func TestNIDECMidActionQuery(t *testing.T) {
	space := ref.NewSpace()
	a, u := space.New(), space.New()
	w := NewWorld(nil)
	fa := newFixture()
	w.AddProcess(a, Staying, fa)
	w.AddProcess(u, Leaving, newFixture())
	w.SealInitialState()
	var before, after bool
	fa.onTimeout = func(Context, *fixtureProto) {
		before = w.NIDEC(u)
		fa.refs.Add(u)
		after = w.NIDEC(u)
	}
	w.Execute(Action{Proc: a, IsTimeout: true})
	if !before || after {
		t.Fatalf("NIDEC(u) mid-action: %v before a stores u, %v after; want true, false", before, after)
	}
}

// TestLedgerClone: a clone starts with no ledger, seeds its own, and
// diverges from its source independently.
func TestLedgerClone(t *testing.T) {
	space := ref.NewSpace()
	n := space.NewN(4)
	w := NewWorld(nil)
	fx := make([]*cloneableFixture, len(n))
	for i, r := range n {
		fx[i] = &cloneableFixture{refs: ref.NewSet()}
		mode := Leaving
		if i == 3 {
			mode = Staying
		}
		w.AddProcess(r, mode, fx[i])
	}
	fx[0].refs.Add(n[1])
	fx[1].refs.Add(n[3])
	w.Enqueue(n[2], NewMessage("m", RefInfo{Ref: n[0]}))
	w.SealInitialState()
	c := w.Clone()
	if st := degreeState(c); st != "none" {
		t.Fatalf("clone on %q, want none", st)
	}
	c.MarkGone(n[1])
	checkEveryDegree(t, c, "clone")
	checkEveryDegree(t, w, "source")
	if d, _ := w.RelevantDegree(n[0]); d != 2 {
		t.Fatalf("source degree of %v = %d after the clone's exit, want 2", n[0], d)
	}
}

// TestInitialComponentsMatchRebuild: the union-find partition equals the
// built PG's weakly connected components element for element, and
// StayingComponentsPreserved equals the induced-subgraph check it replaced,
// at every step of chaos runs — gone processes, duplicates, self and ⊥
// references included — whether or not PG() is built between steps.
func TestInitialComponentsMatchRebuild(t *testing.T) {
	for si, sc := range chaosSchedulers {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pg=%v", sc.name, full), func(t *testing.T) {
				seed := int64(si)*31 + 3
				var sealed [][]ref.Ref
				runChaos(seed, 12, 300, FDP, nil, sc.mk(seed), nil, func(w *World) {
					if full {
						w.PG()
					}
					if w.Steps()%50 == 0 {
						sealed = w.InitialComponents()
						w.SealInitialState()
						if got, want := w.InitialComponents(), w.PG().WeaklyConnectedComponents(); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d: SealInitialState %v, rebuilt PG %v", w.Steps(), got, want)
						}
						w.SetInitialComponents(sealed)
					}
					if got, want := w.StayingComponentsPreserved(), stayingPreservedOnRebuild(w); got != want {
						t.Fatalf("step %d: StayingComponentsPreserved = %v, rebuilt PG says %v", w.Steps(), got, want)
					}
				})
			})
		}
	}
}

// stayingPreservedOnRebuild is legitimacy condition (iii) on the built PG
// induced on the staying processes.
func stayingPreservedOnRebuild(w *World) bool {
	staying := ref.NewSet()
	for _, r := range w.Refs() {
		if w.ModeOf(r) == Staying {
			staying.Add(r)
		}
	}
	pg := w.PG().InducedSubgraph(staying)
	for _, comp := range w.InitialComponents() {
		var members []ref.Ref
		for _, r := range comp {
			if staying.Has(r) {
				members = append(members, r)
			}
		}
		if len(members) < 2 {
			continue
		}
		reach := pg.UndirectedReach(members[0])
		for _, m := range members[1:] {
			if !reach.Has(m) {
				return false
			}
		}
	}
	return true
}
