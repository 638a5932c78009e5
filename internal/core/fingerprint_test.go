package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/oracle"
	"fdp/internal/sim"
)

// fmtFingerprint is World.Fingerprint of a core.Proc world rendered the way
// it was when fingerprints were built with fmt, kept as the reference the
// byte appends must reproduce: the model checker's state counts are only
// comparable across versions if the keys are.
func fmtFingerprint(w *sim.World) string {
	var b strings.Builder
	for _, r := range w.Refs() {
		fmt.Fprintf(&b, "%v/%d/%d{", r, w.ModeOf(r), w.LifeOf(r))
		p := w.ProtocolOf(r).(*core.Proc)
		gap, since := p.VerifyPacing()
		fmt.Fprintf(&b, "v%d;a%v:%d;g%d.%d;", p.Variant(), p.Anchor(), p.AnchorBelief(), gap, since)
		for _, ri := range p.NeighborBeliefs() {
			fmt.Fprintf(&b, "%v:%d,", ri.Ref, ri.Mode)
		}
		b.WriteByte('|')
		var msgs []string
		for _, m := range w.ChannelSnapshot(r) {
			s := m.Label + "("
			for _, ri := range m.Refs {
				s += fmt.Sprintf("%v:%v", ri.Ref, ri.Mode) + ","
			}
			msgs = append(msgs, s+")")
		}
		sort.Strings(msgs)
		for _, s := range msgs {
			b.WriteString(s + ";")
		}
		b.WriteByte('}')
	}
	return b.String()
}

// TestFingerprintBytesUnchanged holds World.Fingerprint (and with it
// Proc.AppendFingerprint and the Ref/RefInfo appends) to the fmt rendering
// after every step of corrupted churn runs: flipped beliefs, random
// anchors and junk messages, so channels hold several messages to sort.
func TestFingerprintBytesUnchanged(t *testing.T) {
	topos := []churn.Topology{churn.TopoLine, churn.TopoRing, churn.TopoStar, churn.TopoTree, churn.TopoClique, churn.TopoRandom}
	for seed := int64(1); seed <= 60; seed++ {
		cfg := churn.Config{
			N: 4 + int(seed%6), Topology: topos[seed%int64(len(topos))], LeaveFraction: 0.5,
			Corrupt: churn.Corruption{FlipBeliefs: 0.5, RandomAnchors: 0.5, JunkMessages: 8},
			Oracle:  oracle.Single{}, Seed: seed,
		}
		if seed%4 == 0 {
			cfg.Variant, cfg.Oracle = core.VariantFSP, nil
		}
		w := churn.Build(cfg).World
		sched := sim.NewRandomScheduler(seed, 64)
		for step := 0; step <= 300; step++ {
			if got, want := w.Fingerprint(), fmtFingerprint(w); got != want {
				t.Fatalf("seed %d step %d:\ngot  %s\nwant %s", seed, step, got, want)
			}
			a, ok := sched.Next(w)
			if !ok {
				break
			}
			w.Execute(a)
		}
	}
}
