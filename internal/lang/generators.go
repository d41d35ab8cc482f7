package lang

import (
	"fmt"
	"math/rand"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lazyrand"
)

// chunked adapts a chunk generator to an adversary.Source: whenever the
// buffer runs dry, refill appends the next chunk of the ω-word to the
// source's one builder, emptied first, and must append at least one symbol
// (fairness: every process appears in every chunk). Next hands symbols out by
// value, so the builder's buffer is reused chunk after chunk.
type chunked struct {
	b      trace.B
	pos    int
	refill func(b *trace.B)
}

func (c *chunked) Next() (trace.Symbol, bool) {
	for c.pos >= len(c.b.Word()) {
		c.b.Reset()
		c.refill(&c.b)
		if len(c.b.Word()) == 0 {
			return trace.Symbol{}, false
		}
		c.pos = 0
	}
	s := c.b.Word()[c.pos]
	c.pos++
	return s, true
}

// -------------------------------------------------------------- counters

// counterSources builds the labelled counter behaviours; strong selects
// SEC_COUNT labels (the over-read source is in WEC_COUNT but not SEC_COUNT).
func counterSources(strong bool) func(n int, seed int64) []adversary.Labeled {
	return func(n int, seed int64) []adversary.Labeled {
		return []adversary.Labeled{
			{Name: "exact", In: true, New: exactCounter(n, seed, 3*n)},
			{Name: "lagging-converge", In: true, New: laggingCounter(n, seed, 2*n)},
			{Name: "over-read", In: !strong, New: overReadCounter(n)},
			{Name: "own-inc-violation", In: false, New: lemma52Counter(n)},
			{Name: "non-monotone", In: false, New: nonMonotoneCounter(n)},
			{Name: "diverge", In: false, New: divergingCounter(n, 2)},
		}
	}
}

// exactCounter behaves like an atomic counter: an inc phase of total incs
// spread round-robin, then reads returning the exact total forever. Satisfies
// all four clauses.
func exactCounter(n int, seed int64, incs int) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(lazyrand.NewSource(seed))
		count := 0
		proc := 0
		return &chunked{refill: func(b *trace.B) {
			for i := 0; i < n; i++ {
				p := proc % n
				proc++
				if count < incs && rng.Intn(2) == 0 {
					count++
					b.Op(p, trace.OpInc, trace.Unit{}, trace.Unit{})
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(count))
				} else {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(count))
				}
			}
		}}
	}
}

// laggingCounter lets incs propagate slowly: readers see a stale but
// per-process monotone count that eventually converges to the total. In both
// WEC_COUNT and SEC_COUNT (lag only lowers read values, and the strong
// clause (4) is an upper bound).
func laggingCounter(n int, seed int64, incs int) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(lazyrand.NewSource(seed + 1))
		count := 0
		seen := make([]int, n) // per-reader last reported value
		incProc := 0           // process 0 performs all incs, others lag
		round := 0
		return &chunked{refill: func(b *trace.B) {
			round++
			if count < incs {
				count++
				b.Op(incProc, trace.OpInc, trace.Unit{}, trace.Unit{})
			}
			for p := 0; p < n; p++ {
				if p == incProc {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(count))
					continue
				}
				// Lag behind by a random amount, monotone, converging once
				// incs stop.
				target := count
				if count < incs && target > 0 {
					target -= rng.Intn(2)
				}
				if target < seen[p] {
					target = seen[p]
				}
				seen[p] = target
				b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(target))
			}
		}}
	}
}

// overReadCounter violates only the strong clause (4): process 1 reads 2
// when a single inc has completed and none is pending, the second inc arrives
// later, and everything converges to 2. Weakly consistent, not strongly.
func overReadCounter(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func(b *trace.B) {
			switch phase {
			case 0:
				b.Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
				b.Op(1%n, trace.OpRead, trace.Unit{}, trace.Int(2)) // the over-read
				b.Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
			default:
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(2))
				}
			}
			phase++
		}}
	}
}

// lemma52Counter is the witness of Lemma 5.2: process 0 increments once and
// every process reads 0 forever — process 0's first read violates clause (1).
func lemma52Counter(n int) func() adversary.Source {
	return func() adversary.Source {
		started := false
		return &chunked{refill: func(b *trace.B) {
			if !started {
				started = true
				b.Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
			}
			for p := n - 1; p >= 0; p-- { // p2 reads first, as in the paper
				b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(0))
			}
		}}
	}
}

// nonMonotoneCounter violates clause (2): after two incs, process 1 reads 2
// then 1, then converges.
func nonMonotoneCounter(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func(b *trace.B) {
			if phase == 0 {
				b.Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
				b.Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
				b.Op(1%n, trace.OpRead, trace.Unit{}, trace.Int(2))
				b.Op(1%n, trace.OpRead, trace.Unit{}, trace.Int(1)) // violation
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(2))
				}
			}
			phase++
		}}
	}
}

// divergingCounter violates only the liveness clause (3): incs incs happen,
// reads stabilize at incs−1 forever. No finite prefix falsifies membership.
func divergingCounter(n, incs int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func(b *trace.B) {
			if phase == 0 {
				for k := 0; k < incs; k++ {
					b.Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
				}
			}
			phase++
			for p := 0; p < n; p++ {
				if p == 0 {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(incs)) // own incs force ≥
					continue
				}
				b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(incs-1))
			}
		}}
	}
}

// -------------------------------------------------------------- registers

func registerSources(lin bool) func(n int, seed int64) []adversary.Labeled {
	return func(n int, seed int64) []adversary.Labeled {
		return []adversary.Labeled{
			{Name: "atomic", In: true, New: atomicRegister(n, seed)},
			{Name: "stale-reads", In: !lin, New: staleRegister(n, seed)},
			{Name: "inversion", In: false, New: inversionRegister(n)},
			{Name: "phantom", In: false, New: phantomRegister(n)},
		}
	}
}

// atomicRegister behaves like an atomic register, including overlapping
// write/read pairs where the read may return either the old or new value —
// linearizable either way.
func atomicRegister(n int, seed int64) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(lazyrand.NewSource(seed + 2))
		cur := int64(0)
		next := int64(1)
		return &chunked{refill: func(b *trace.B) {
			writer := rng.Intn(n)
			reader := (writer + 1 + rng.Intn(n-1)) % n
			if rng.Intn(2) == 0 {
				// Sequential write then read.
				cur = next
				next++
				b.Op(writer, trace.OpWrite, trace.Int(cur), trace.Unit{})
				b.Op(reader, trace.OpRead, trace.Unit{}, trace.Int(cur))
			} else {
				// Overlapping write and read; the read returns old or new.
				old := cur
				cur = next
				next++
				ret := cur
				if rng.Intn(2) == 0 {
					ret = old
				}
				b.Inv(writer, trace.OpWrite, trace.Int(cur)).
					Inv(reader, trace.OpRead, trace.Unit{}).
					Res(writer, trace.OpWrite, trace.Unit{}).
					Res(reader, trace.OpRead, trace.Int(ret))
			}
			// Keep fairness: everyone else reads the current value.
			for p := 0; p < n; p++ {
				if p != writer && p != reader {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(cur))
				}
			}
		}}
	}
}

// staleRegister: process 0 writes 1,2,3,... and readers lag monotonically —
// sequentially consistent but not linearizable once a read returns an
// overwritten value.
func staleRegister(n int, seed int64) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(lazyrand.NewSource(seed + 3))
		written := int64(0)
		seen := make([]int64, n)
		return &chunked{refill: func(b *trace.B) {
			written++
			b.Op(0, trace.OpWrite, trace.Int(written), trace.Unit{})
			for p := 1; p < n; p++ {
				lag := int64(rng.Intn(2) + 1) // always at least one behind
				v := written - lag
				if v < seen[p] {
					v = seen[p]
				}
				if v < 0 {
					v = 0
				}
				seen[p] = v
				b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(v))
			}
		}}
	}
}

// inversionRegister: a read observes the new value and a later read of
// another process observes the old one — not sequentially consistent once
// the same reader regresses.
func inversionRegister(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func(b *trace.B) {
			if phase == 0 {
				b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
				b.Op(1%n, trace.OpRead, trace.Unit{}, trace.Int(1))
				b.Op(1%n, trace.OpRead, trace.Unit{}, trace.Int(0)) // regression
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(1))
				}
			}
			phase++
		}}
	}
}

// phantomRegister: a read returns a value never written.
func phantomRegister(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func(b *trace.B) {
			if phase == 0 {
				b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
				b.Op(1%n, trace.OpRead, trace.Unit{}, trace.Int(99))
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(1))
				}
			}
			phase++
		}}
	}
}

// -------------------------------------------------------------- ledgers

func ledgerSources(lin bool) func(n int, seed int64) []adversary.Labeled {
	return func(n int, seed int64) []adversary.Labeled {
		return []adversary.Labeled{
			{Name: "atomic", In: true, New: atomicLedger(n, seed)},
			{Name: "stale-gets", In: !lin, New: staleLedger(n)},
			{Name: "lost-append", In: false, New: lostAppendLedger(n)},
		}
	}
}

func recName(k int) trace.Rec { return trace.Rec(fmt.Sprintf("r%d", k)) }

// The ledger sources keep one append-only ledger each and hand out capped
// prefixes of it, ledger[:k:k], as get responses: a later append cannot
// write into a prefix already handed out, and no reader of a word mutates
// a Seq it holds, so the responses can share the ledger's storage. A
// non-nil empty ledger keeps the empty responses non-nil, as copies were.

// atomicLedger: sequential appends and exact gets.
func atomicLedger(n int, seed int64) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(lazyrand.NewSource(seed + 4))
		ledger := trace.Seq{}
		k := 0
		return &chunked{refill: func(b *trace.B) {
			appender := rng.Intn(n)
			k++
			r := recName(k)
			ledger = append(ledger, r)
			b.Op(appender, trace.OpAppend, r, trace.Unit{})
			for p := 0; p < n; p++ {
				b.Op(p, trace.OpGet, trace.Unit{}, ledger[:k:k])
			}
		}}
	}
}

// staleLedger: process 0 appends; readers' gets return lagging prefixes —
// sequentially consistent, not linearizable.
func staleLedger(n int) func() adversary.Source {
	return func() adversary.Source {
		ledger := trace.Seq{}
		k := 0
		return &chunked{refill: func(b *trace.B) {
			k++
			r := recName(k)
			ledger = append(ledger, r)
			b.Op(0, trace.OpAppend, r, trace.Unit{})
			for p := 1; p < n; p++ {
				lag := 1
				cut := len(ledger) - lag
				if cut < 0 {
					cut = 0
				}
				b.Op(p, trace.OpGet, trace.Unit{}, ledger[:cut:cut])
			}
			b.Op(0, trace.OpGet, trace.Unit{}, ledger[:k:k])
		}}
	}
}

// lostAppendLedger: an append completes and later gets return subsequent
// records without it — the chain breaks, violating even EC clause (1).
func lostAppendLedger(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		kept := trace.Seq{"kept"}
		return &chunked{refill: func(b *trace.B) {
			if phase == 0 {
				b.Op(0, trace.OpAppend, trace.Rec("lost"), trace.Unit{})
				b.Op(0, trace.OpAppend, trace.Rec("kept"), trace.Unit{})
				b.Op(1%n, trace.OpGet, trace.Unit{}, kept)
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpGet, trace.Unit{}, kept)
				}
			}
			phase++
		}}
	}
}

// ecLedgerSources are the behaviours for the eventually consistent ledger.
func ecLedgerSources(n int, seed int64) []adversary.Labeled {
	return []adversary.Labeled{
		{Name: "gossip-converge", In: true, New: gossipLedger(n, seed, 4)},
		{Name: "lemma65-dropped", In: false, New: lemma65Ledger(n)},
		{Name: "forked", In: false, New: forkedLedger(n)},
	}
}

// gossipLedger: appends propagate lazily, gets return growing prefixes of one
// canonical order and eventually contain everything.
func gossipLedger(n int, seed int64, appends int) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(lazyrand.NewSource(seed + 5))
		ledger := trace.Seq{}
		prefix := make([]int, n)
		k := 0
		return &chunked{refill: func(b *trace.B) {
			if k < appends {
				k++
				r := recName(k)
				ledger = append(ledger, r)
				b.Op(rng.Intn(n), trace.OpAppend, r, trace.Unit{})
			}
			for p := 0; p < n; p++ {
				// Each reader's known prefix grows monotonically and reaches
				// the full ledger once appends stop.
				if prefix[p] < len(ledger) {
					grow := 1
					if k < appends {
						grow = rng.Intn(2)
					}
					prefix[p] += grow
				}
				b.Op(p, trace.OpGet, trace.Unit{}, ledger[:prefix[p]:prefix[p]])
			}
		}}
	}
}

// lemma65Ledger is the Lemma 6.5 witness: append(a) then gets returning the
// empty string forever — clause (1) holds on every prefix (the append can be
// permuted last), clause (2) fails in the limit.
func lemma65Ledger(n int) func() adversary.Source {
	return func() adversary.Source {
		started := false
		empty := trace.Seq{}
		return &chunked{refill: func(b *trace.B) {
			if !started {
				started = true
				b.Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{})
			}
			for p := n - 1; p >= 0; p-- {
				b.Op(p, trace.OpGet, trace.Unit{}, empty)
			}
		}}
	}
}

// forkedLedger violates clause (1): two gets return incomparable sequences.
func forkedLedger(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		seqA, seqB, seqAB := trace.Seq{"a"}, trace.Seq{"b"}, trace.Seq{"a", "b"}
		return &chunked{refill: func(b *trace.B) {
			if phase == 0 {
				b.Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{})
				b.Op(0, trace.OpAppend, trace.Rec("b"), trace.Unit{})
				b.Op(1%n, trace.OpGet, trace.Unit{}, seqA)
				b.Op((2)%n, trace.OpGet, trace.Unit{}, seqB)
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpGet, trace.Unit{}, seqAB)
				}
			}
			phase++
		}}
	}
}
