package lang

import (
	"fmt"
	"math/rand"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
)

// chunked adapts a chunk generator to an adversary.Source: refill is called
// whenever the buffer runs dry and must return the next non-empty chunk of
// the ω-word (fairness: every process appears in every chunk).
type chunked struct {
	buf    trace.Word
	pos    int
	refill func() trace.Word
}

func (c *chunked) Next() (trace.Symbol, bool) {
	for c.pos >= len(c.buf) {
		chunk := c.refill()
		if len(chunk) == 0 {
			return trace.Symbol{}, false
		}
		c.buf, c.pos = chunk, 0
	}
	s := c.buf[c.pos]
	c.pos++
	return s, true
}

func source(refill func() trace.Word) func() adversary.Source {
	return func() adversary.Source {
		return &chunked{refill: refill}
	}
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
		rng := rand.New(rand.NewSource(seed))
		count := 0
		proc := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
		}}
	}
}

// laggingCounter lets incs propagate slowly: readers see a stale but
// per-process monotone count that eventually converges to the total. In both
// WEC_COUNT and SEC_COUNT (lag only lowers read values, and the strong
// clause (4) is an upper bound).
func laggingCounter(n int, seed int64, incs int) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(rand.NewSource(seed + 1))
		count := 0
		seen := make([]int, n) // per-reader last reported value
		incProc := 0           // process 0 performs all incs, others lag
		round := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
		}}
	}
}

// overReadCounter violates only the strong clause (4): process 1 reads 2
// when a single inc has completed and none is pending, the second inc arrives
// later, and everything converges to 2. Weakly consistent, not strongly.
func overReadCounter(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
		}}
	}
}

// lemma52Counter is the witness of Lemma 5.2: process 0 increments once and
// every process reads 0 forever — process 0's first read violates clause (1).
func lemma52Counter(n int) func() adversary.Source {
	return func() adversary.Source {
		started := false
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			if !started {
				started = true
				b.Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
			}
			for p := n - 1; p >= 0; p-- { // p2 reads first, as in the paper
				b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(0))
			}
			return b.Word()
		}}
	}
}

// nonMonotoneCounter violates clause (2): after two incs, process 1 reads 2
// then 1, then converges.
func nonMonotoneCounter(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
		}}
	}
}

// divergingCounter violates only the liveness clause (3): incs incs happen,
// reads stabilize at incs−1 forever. No finite prefix falsifies membership.
func divergingCounter(n, incs int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
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
		rng := rand.New(rand.NewSource(seed + 2))
		cur := int64(0)
		next := int64(1)
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
		}}
	}
}

// staleRegister: process 0 writes 1,2,3,... and readers lag monotonically —
// sequentially consistent but not linearizable once a read returns an
// overwritten value.
func staleRegister(n int, seed int64) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(rand.NewSource(seed + 3))
		written := int64(0)
		seen := make([]int64, n)
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
		}}
	}
}

// inversionRegister: a read observes the new value and a later read of
// another process observes the old one — not sequentially consistent once
// the same reader regresses.
func inversionRegister(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
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
			return b.Word()
		}}
	}
}

// phantomRegister: a read returns a value never written.
func phantomRegister(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			if phase == 0 {
				b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
				b.Op(1%n, trace.OpRead, trace.Unit{}, trace.Int(99))
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(1))
				}
			}
			phase++
			return b.Word()
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

// atomicLedger: sequential appends and exact gets.
func atomicLedger(n int, seed int64) func() adversary.Source {
	return func() adversary.Source {
		rng := rand.New(rand.NewSource(seed + 4))
		var ledger trace.Seq
		k := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			appender := rng.Intn(n)
			k++
			ledger = append(ledger.Clone(), recName(k))
			b.Op(appender, trace.OpAppend, recName(k), trace.Unit{})
			for p := 0; p < n; p++ {
				b.Op(p, trace.OpGet, trace.Unit{}, ledger.Clone())
			}
			return b.Word()
		}}
	}
}

// staleLedger: process 0 appends; readers' gets return lagging prefixes —
// sequentially consistent, not linearizable.
func staleLedger(n int) func() adversary.Source {
	return func() adversary.Source {
		var ledger trace.Seq
		k := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			k++
			ledger = append(ledger.Clone(), recName(k))
			b.Op(0, trace.OpAppend, recName(k), trace.Unit{})
			for p := 1; p < n; p++ {
				lag := 1
				cut := len(ledger) - lag
				if cut < 0 {
					cut = 0
				}
				b.Op(p, trace.OpGet, trace.Unit{}, ledger[:cut].Clone())
			}
			b.Op(0, trace.OpGet, trace.Unit{}, ledger.Clone())
			return b.Word()
		}}
	}
}

// lostAppendLedger: an append completes and later gets return subsequent
// records without it — the chain breaks, violating even EC clause (1).
func lostAppendLedger(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			if phase == 0 {
				b.Op(0, trace.OpAppend, trace.Rec("lost"), trace.Unit{})
				b.Op(0, trace.OpAppend, trace.Rec("kept"), trace.Unit{})
				b.Op(1%n, trace.OpGet, trace.Unit{}, trace.Seq{"kept"})
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpGet, trace.Unit{}, trace.Seq{"kept"})
				}
			}
			phase++
			return b.Word()
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
		rng := rand.New(rand.NewSource(seed + 5))
		var ledger trace.Seq
		prefix := make([]int, n)
		k := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			if k < appends {
				k++
				ledger = append(ledger.Clone(), recName(k))
				b.Op(rng.Intn(n), trace.OpAppend, recName(k), trace.Unit{})
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
				b.Op(p, trace.OpGet, trace.Unit{}, ledger[:prefix[p]].Clone())
			}
			return b.Word()
		}}
	}
}

// lemma65Ledger is the Lemma 6.5 witness: append(a) then gets returning the
// empty string forever — clause (1) holds on every prefix (the append can be
// permuted last), clause (2) fails in the limit.
func lemma65Ledger(n int) func() adversary.Source {
	return func() adversary.Source {
		started := false
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			if !started {
				started = true
				b.Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{})
			}
			for p := n - 1; p >= 0; p-- {
				b.Op(p, trace.OpGet, trace.Unit{}, trace.Seq{})
			}
			return b.Word()
		}}
	}
}

// forkedLedger violates clause (1): two gets return incomparable sequences.
func forkedLedger(n int) func() adversary.Source {
	return func() adversary.Source {
		phase := 0
		return &chunked{refill: func() trace.Word {
			b := trace.NewB()
			if phase == 0 {
				b.Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{})
				b.Op(0, trace.OpAppend, trace.Rec("b"), trace.Unit{})
				b.Op(1%n, trace.OpGet, trace.Unit{}, trace.Seq{"a"})
				b.Op((2)%n, trace.OpGet, trace.Unit{}, trace.Seq{"b"})
			} else {
				for p := 0; p < n; p++ {
					b.Op(p, trace.OpGet, trace.Unit{}, trace.Seq{"a", "b"})
				}
			}
			phase++
			return b.Word()
		}}
	}
}
