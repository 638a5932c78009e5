package sim

import (
	"fmt"
	"reflect"
	"testing"

	"fdp/internal/ref"
)

// degreeState names the structure w keeps: "none", "ledger" or "pg".
func degreeState(w *World) string {
	switch {
	case w.pg != nil && w.ledger != nil:
		return "both"
	case w.pg != nil:
		return "pg"
	case w.ledger != nil:
		return "ledger"
	}
	return "none"
}

// wantDegree is RelevantDegree from first principles: a rebuilt PG and the
// hibernating set recomputed on it.
func wantDegree(w *World, u ref.Ref) (int, bool) {
	pg := w.RebuildPG()
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

// checkLeaverDegrees compares every live leaver's RelevantDegree with
// wantDegree. It asks nothing else, so a world on the ledger stays there.
func checkLeaverDegrees(t *testing.T, w *World, where string) {
	t.Helper()
	for _, r := range w.Refs() {
		if w.ModeOf(r) != Leaving || w.LifeOf(r) == Gone {
			continue
		}
		gd, gok := w.RelevantDegree(r)
		if wd, wok := wantDegree(w, r); gd != wd || gok != wok {
			t.Fatalf("%s: RelevantDegree(%v) = %d, %v on the %s; rebuilt PG says %d, %v",
				where, r, gd, gok, degreeState(w), wd, wok)
		}
	}
}

// ledgerOracle checks every leaver's degree from inside an atomic action,
// where the acting process's refs may have changed since its last sync.
type ledgerOracle struct{ t *testing.T }

func (ledgerOracle) Name() string { return "ledger-check" }

func (o ledgerOracle) Evaluate(w *World, u ref.Ref) bool {
	o.t.Helper()
	checkLeaverDegrees(o.t, w, fmt.Sprintf("mid-action of %v, step %d", u, w.Steps()))
	return false
}

// TestLedgerDegreeMatchesRebuild is TestIncrementalPGMatchesRebuild for the
// leaver-only ledger: under every scheduler and both variants, after every
// step and mid-action, every live leaver's RelevantDegree equals its degree
// in a rebuilt PG. The test asks only leavers' degrees, so the world stays on
// the ledger until a process sleeps (FSP), when the answer must come from the
// PG instead; nothing else may make it build the PG.
func TestLedgerDegreeMatchesRebuild(t *testing.T) {
	for si, sc := range chaosSchedulers {
		for _, variant := range []Variant{FDP, FSP} {
			t.Run(fmt.Sprintf("%s/%v", sc.name, variant), func(t *testing.T) {
				onLedger := 0
				for k := int64(0); k < 4; k++ {
					seed := int64(si)*97 + int64(variant)*13 + 11 + 1000*k
					slept := false
					runChaos(seed, 12, 400, variant, ledgerOracle{t}, sc.mk(seed), func(w *World) {
						checkLeaverDegrees(t, w, fmt.Sprintf("seed %d, step %d", seed, w.Steps()))
						slept = slept || w.asleep > 0
						switch st := degreeState(w); {
						case st == "ledger":
							onLedger++
						case st != "pg" || !slept:
							t.Fatalf("seed %d, step %d: world on %q with no process ever asleep", seed, w.Steps(), st)
						}
					})
				}
				if onLedger == 0 {
					t.Fatal("no step ran on the ledger")
				}
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

// TestLedgerFallbacks pins which structure each event leaves the world on,
// and that every live leaver's degree is right afterwards.
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
		{"ForceAsleep sends a degree query to the PG", func(w *World, n []ref.Ref, _ []*fixtureProto) {
			w.ForceAsleep(n[5])
			w.RelevantDegree(n[0])
		}, "pg"},
		{"a stayer's degree seeds the PG", func(w *World, n []ref.Ref, _ []*fixtureProto) {
			w.RelevantDegree(n[3])
		}, "pg"},
		{"PG drops the ledger", func(w *World, _ []ref.Ref, _ []*fixtureProto) {
			w.PG()
		}, "pg"},
		{"Relevant seeds the PG", func(w *World, _ []ref.Ref, _ []*fixtureProto) {
			w.Relevant()
		}, "pg"},
		{"a degree query on the PG keeps it", func(w *World, n []ref.Ref, fx []*fixtureProto) {
			w.PG()
			exit(w, fx[3], n[3])
			w.RelevantDegree(n[0])
		}, "pg"},
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
			checkLeaverDegrees(t, w, tc.name)
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
	checkLeaverDegrees(t, w, "after the action")
}

// TestLedgerClone: a clone starts with neither structure, seeds its own,
// and diverges from its source independently.
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
	checkLeaverDegrees(t, c, "clone")
	checkLeaverDegrees(t, w, "source")
	if d, _ := w.RelevantDegree(n[0]); d != 2 {
		t.Fatalf("source degree of %v = %d after the clone's exit, want 2", n[0], d)
	}
}

// TestInitialComponentsMatchRebuild: the union-find partition equals the
// rebuilt PG's weakly connected components element for element, and
// StayingComponentsPreserved equals the induced-subgraph check it replaced,
// at every step of chaos runs — gone processes, duplicates, self and ⊥
// references included — on either structure.
func TestInitialComponentsMatchRebuild(t *testing.T) {
	for si, sc := range chaosSchedulers {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pg=%v", sc.name, full), func(t *testing.T) {
				seed := int64(si)*31 + 3
				var sealed [][]ref.Ref
				runChaos(seed, 12, 300, FDP, nil, sc.mk(seed), func(w *World) {
					if full {
						w.PG()
					}
					if w.Steps()%50 == 0 {
						sealed = w.InitialComponents()
						w.SealInitialState()
						if got, want := w.InitialComponents(), w.RebuildPG().WeaklyConnectedComponents(); !reflect.DeepEqual(got, want) {
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

// stayingPreservedOnRebuild is legitimacy condition (iii) on the rebuilt PG
// induced on the staying processes.
func stayingPreservedOnRebuild(w *World) bool {
	staying := ref.NewSet()
	for _, r := range w.Refs() {
		if w.ModeOf(r) == Staying {
			staying.Add(r)
		}
	}
	pg := w.RebuildPG().InducedSubgraph(staying)
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
