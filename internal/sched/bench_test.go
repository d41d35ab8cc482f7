package sched

import (
	"iter"
	"testing"
)

// pauser is a process body that pauses forever.
func pauser(p *Proc) {
	for {
		p.Pause()
	}
}

// benchSteps runs rt, whose processes are spawned, for warm-up steps that
// start every process and then for b.N timed steps, so ns/op is the cost of
// one step.
func benchSteps(b *testing.B, rt *Runtime) {
	defer rt.Stop()
	rt.Run(100)
	b.ReportAllocs()
	b.ResetTimer()
	if got := rt.Run(b.N); got != b.N {
		b.Fatalf("ran %d of %d steps", got, b.N)
	}
}

// pausers returns a runtime of n pausers under policy.
func pausers(n int, policy Policy) *Runtime {
	rt := New(n, policy)
	for i := 0; i < n; i++ {
		rt.Spawn(i, pauser)
	}
	return rt
}

// BenchmarkPullRoundTrip is the floor under a hand-over: one bare iter.Pull
// round trip, next into a coroutine and its yield back.
func BenchmarkPullRoundTrip(b *testing.B) {
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		for yield(struct{}{}) {
		}
	})
	defer stop()
	next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}

// BenchmarkAlone is one process stepping alone: every choice is made and
// taken inside its Pause, with no switch.
func BenchmarkAlone(b *testing.B) { benchSteps(b, pausers(1, RoundRobin())) }

// BenchmarkAlternating is two processes taking turns: every step is a
// hand-over.
func BenchmarkAlternating(b *testing.B) { benchSteps(b, pausers(2, RoundRobin())) }

// BenchmarkAuxStep is an aux actor stepping while the one process stays
// parked after its first step; the caller runs every aux step.
func BenchmarkAuxStep(b *testing.B) {
	rt := pausers(1, nil)
	aux := rt.AddAux(func() bool { return true }, func() {})
	rt.SetPolicy(PolicyFunc(func(_ []int, step int) int {
		if step == 0 {
			return 0
		}
		return aux
	}))
	benchSteps(b, rt)
}

// BenchmarkRandom3Aux1 is three processes and one aux actor under Random,
// the shape of a Table 1 run: a monitor per process and the adversary's
// word cursor.
func BenchmarkRandom3Aux1(b *testing.B) {
	rt := pausers(3, nil)
	rt.AddAux(func() bool { return true }, func() {})
	rt.SetPolicy(Random(1))
	benchSteps(b, rt)
}

// BenchmarkRandom5 is five processes under Random.
func BenchmarkRandom5(b *testing.B) { benchSteps(b, pausers(5, Random(1))) }
