package monitor

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/sched"
)

// Theorem 4.1 (SD ⊆ WAD = WOD) is a chain of monitor transformations. The
// Figure 2 transform presupposes a monitor that strongly decides — one that
// never reports NO on in-language words — so the round-trip is exercised on
// a language that IS strongly decidable: "every read returns 0", a local
// safety property each process can falsify from its own responses alone
// (the paper conjectures exactly such no-communication-needed languages are
// the only SD ones).

// zeroLogic reports NO iff the process has received a read response ≠ 0.
type zeroLogic struct{ bad bool }

func (l *zeroLogic) PreSend(*sched.Proc, trace.Symbol) {}
func (l *zeroLogic) PostRecv(_ *sched.Proc, r trace.Response) {
	if r.Sym.Op == trace.OpRead {
		if v, ok := r.Sym.Val.(trace.Int); ok && v != 0 {
			l.bad = true
		}
	}
}
func (l *zeroLogic) Decide(*sched.Proc) Verdict {
	if l.bad {
		return No
	}
	return Yes
}

func zeroMonitor() Monitor {
	return NewMonitor("all-reads-zero", func(n int) []Logic {
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &zeroLogic{}
		}
		return logics
	})
}

// zeroSource emits rounds of reads returning 0; when poison ≥ 0, process 1's
// poison-th read returns 7 instead, putting the word outside the language.
func zeroSource(procs, rounds, poison int) adversary.Source {
	b := trace.NewB()
	k := 0
	for r := 0; r < rounds; r++ {
		for p := 0; p < procs; p++ {
			val := trace.Int(0)
			if p == 1 && k == poison {
				val = trace.Int(7)
			}
			if p == 1 {
				k++
			}
			b.Op(p, trace.OpRead, nil, val)
		}
	}
	return adversary.NewScriptSource(b.Word())
}

func TestTheorem41RoundTrip(t *testing.T) {
	const rounds = 40
	cases := []struct {
		name   string
		poison int
		in     bool
	}{
		{"all-zero", -1, true},
		{"poisoned", 3, false},
	}
	chain := []struct {
		name  string
		m     Monitor
		class core.Class
	}{
		// The base monitor strongly decides the language.
		{"SD base", zeroMonitor(), core.SD},
		// Lemma 4.1 / Figure 2: stabilized, it satisfies WAD ("eventually
		// every process always reports NO" on bad words).
		{"Fig2→WAD", Stabilize(zeroMonitor()), core.WAD},
		// Lemma 4.2 / Figure 3: amplified, it satisfies WOD.
		{"Fig3→WOD", AmplifyWAD(Stabilize(zeroMonitor()), adversary.ArrayAtomic), core.WOD},
		// Lemma 4.3 / Figure 4: amplified again, back to WAD — WAD = WOD.
		{"Fig4→WAD", AmplifyWOD(AmplifyWAD(Stabilize(zeroMonitor()), adversary.ArrayAtomic), adversary.ArrayAtomic), core.WAD},
	}
	for _, c := range cases {
		for _, st := range chain {
			res := runUntimed(st.m, zeroSource(testProcs, rounds, c.poison), 19)
			ev := core.Eval{Class: st.class, Window: testWindow}
			if err := ev.Check(res, c.in); err != nil {
				t.Errorf("%s on %s: %v", st.name, c.name, err)
			}
		}
	}
}
