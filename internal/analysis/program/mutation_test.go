package program_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdp/internal/analysis"
	"fdp/internal/analysis/all"
	"fdp/internal/analysis/program"
)

// repoRoot locates the module root from the test's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("no go.mod at %s: %v", root, err)
	}
	return root
}

// TestRepoIsLintClean asserts the whole-program suite over the repository
// itself: the annotations in the tree are the golden state, and any
// unsanctioned move, mixed atomic access, lock-graph defect, or stale
// ignore fails this test.
func TestRepoIsLintClean(t *testing.T) {
	res, err := program.Run(program.Options{Dir: repoRoot(t)}, all.Analyzers())
	if err != nil {
		t.Fatalf("program.Run: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("%s: %s (%s)", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// copyModule copies go.mod and every non-test tree of .go files into dst,
// skipping build artifacts and fixture trees.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			switch info.Name() {
			case ".git", "testdata", "bin", "docs":
				if rel != "." {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}

// TestSeededMutationsAreDetected copies the module, seeds one violation per
// whole-program analyzer — an unannotated reference move reached through a
// helper, a mixed plain/atomic access, a lock-order cycle — plus a nested
// acquisition under the registry's leaf mutex, which only lockgraph's
// //fdp:lockleaf check can catch, and four leaks edited into the real
// sources that only lockgraph's pairing and oracle rules can catch, and
// asserts each is detected with a path-bearing diagnostic in a single
// whole-program run.
func TestSeededMutationsAreDetected(t *testing.T) {
	dst := t.TempDir()
	copyModule(t, repoRoot(t), dst)

	write := func(rel, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dst, filepath.FromSlash(rel)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Mutation 1: a reference move outside the primitive vocabulary, two
	// frames deep so the diagnostic must carry the call path.
	write("internal/core/zz_mutation.go", `package core

import "fdp/internal/ref"

func (p *Proc) MutateBad(v ref.Ref) { p.mutateHelper(v) }

func (p *Proc) mutateHelper(v ref.Ref) { p.refs = append(p.refs, v) }
`)
	// Mutation 2: a variable accessed both atomically and plainly.
	write("internal/parallel/zz_mutation_atomic.go", `package parallel

import "sync/atomic"

var mutCount uint64

func mutAdd() uint64  { return atomic.AddUint64(&mutCount, 1) }
func mutPeek() uint64 { return mutCount }

var _ = mutAdd
var _ = mutPeek
`)
	// Mutation 3: two mutexes acquired in both orders — a cycle in the
	// inferred acquisition graph.
	write("internal/parallel/zz_mutation_locks.go", `package parallel

import "sync"

var mutMuA, mutMuB sync.Mutex

func mutAB() {
	mutMuA.Lock()
	mutMuB.Lock()
	mutMuB.Unlock()
	mutMuA.Unlock()
}

func mutBA() {
	mutMuB.Lock()
	mutMuA.Lock()
	mutMuA.Unlock()
	mutMuB.Unlock()
}

var _ = mutAB
var _ = mutBA
`)
	// Mutation 4: a registry method that registers a counter (which takes
	// Registry.mu) while already holding Registry.mu.
	write("internal/obs/zz_mutation_leaf.go", `package obs

func (r *Registry) mutNested(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Counter(name, "")
}

var _ = (*Registry).mutNested
`)

	// Mutations 5–8 edit the copied sources in place; an edit whose anchor
	// is gone fails the test rather than silently seeding nothing.
	edit := func(rel, old, new string) {
		t.Helper()
		path := filepath.Join(dst, filepath.FromSlash(rel))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(data), old) != 1 {
			t.Fatalf("%s: want exactly one occurrence of %q", rel, old)
		}
		write(rel, strings.Replace(string(data), old, new, 1))
	}
	// Mutation 5: an early return under a flight ring's per-lane mutex, on
	// every observed run's event path.
	edit("internal/trace/flight.go",
		"\tr.mu.Lock()\n\tr.buf[r.next] = e\n",
		"\tr.mu.Lock()\n\tif len(r.buf) == 0 {\n\t\treturn\n\t}\n\tr.buf[r.next] = e\n")
	// Mutation 6: the same leak under the TCP transport's mutex, which no
	// directive marks.
	edit("internal/transport/tcp.go",
		"\tt.mu.Lock()\n\tpeers := make([]NodeID, 0, len(t.cfg.Peers))\n",
		"\tt.mu.Lock()\n\tif len(t.cfg.Peers) == 0 {\n\t\treturn\n\t}\n\tpeers := make([]NodeID, 0, len(t.cfg.Peers))\n")
	// Mutation 7: Mutate returns between pauseAll and the deferred
	// resumeAll — the world stays frozen. The locks are held through
	// pauseAll's escaping acquisition, not a Lock in Mutate.
	edit("internal/parallel/parallel.go",
		"\trt.pauseAll()\n\tdefer rt.resumeAll()\n\trt.from = nil\n",
		"\trt.pauseAll()\n\tif len(rt.shards) == 1 {\n\t\treturn\n\t}\n\tdefer rt.resumeAll()\n\trt.from = nil\n")
	// Mutation 8: validateExitOn judges before it takes oracleMu.
	edit("internal/parallel/parallel.go",
		"\t\trt.oracleMu.Lock()\n\t\tok := rt.oracle.Evaluate(w, p.id)\n",
		"\t\tok := rt.oracle.Evaluate(w, p.id)\n\t\trt.oracleMu.Lock()\n")

	res, err := program.Run(program.Options{Dir: dst}, all.Analyzers())
	if err != nil {
		t.Fatalf("program.Run on mutated copy: %v", err)
	}

	find := func(analyzer string, substrs ...string) analysis.Diagnostic {
		t.Helper()
		for _, d := range res.Diags {
			if d.Analyzer != analyzer {
				continue
			}
			ok := true
			for _, s := range substrs {
				if !strings.Contains(d.Message, s) {
					ok = false
					break
				}
			}
			if ok {
				return d
			}
		}
		t.Errorf("no %s diagnostic containing %q; got:", analyzer, substrs)
		for _, d := range res.Diags {
			t.Logf("  %s: %s (%s)", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
		return analysis.Diagnostic{}
	}

	// Each assertion includes the path fragment, not just the site: the
	// diagnostics must say how the violation is reached.
	find("primdecomp", "MutateBad", "calls mutateHelper", "stores a reference into p.refs")
	find("atomicdiscipline", "plain access to mutCount", "sync/atomic at")
	find("lockgraph", "lock cycle", "parallel.mutMuA", "via")
	find("lockgraph", "while holding obs.Registry.mu violates its //fdp:lockleaf declaration", "mutNested", "lookupOrCreate")
	find("lockgraph", "return while holding trace.ring.mu", "path: Record (trace/flight.go:")
	find("lockgraph", "return while holding transport.TCP.mu", "path: BroadcastControl (transport/tcp.go:")
	find("lockgraph", "return while holding parallel.Runtime.freezeMu, parallel.shard.actMu", "path: Mutate (parallel/parallel.go:", "→ pauseAll (parallel/shard.go:")
	find("lockgraph", "oracle.Evaluate outside an oracleMu critical section", "path: validateExitOn (parallel/parallel.go:")

	// The seeded violations must be the only findings — the copy is
	// otherwise the lint-clean tree — and each of the four leaks is exactly
	// one lockgraph diagnostic: the cycle of mutation 3 is reported at both
	// closing acquisitions, which with the leaf violation makes seven.
	lockgraphDiags := 0
	for _, d := range res.Diags {
		switch d.Analyzer {
		case "lockgraph":
			lockgraphDiags++
		case "primdecomp", "atomicdiscipline":
		default:
			t.Errorf("unexpected %s diagnostic: %s", d.Analyzer, d.Message)
		}
	}
	if lockgraphDiags != 7 {
		t.Errorf("got %d lockgraph diagnostics, want 7:", lockgraphDiags)
		for _, d := range res.Diags {
			t.Logf("  %s: %s (%s)", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
}
