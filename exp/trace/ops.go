package trace

import "fmt"

// OpID names an operation uniquely within a word: the Idx-th operation of
// process Proc (0-based within the local word w|Proc). The paper assumes each
// invocation symbol is sent at most once, "alternatively, each invocation
// symbol could be marked with its position to make it unique" — OpID is that
// marking.
type OpID struct {
	Proc int
	Idx  int
}

// String renders the identifier as "p<proc>#<idx>".
func (id OpID) String() string { return fmt.Sprintf("p%d#%d", id.Proc, id.Idx) }

// Operation is a matched invocation/response pair of a process in a word, or
// a pending invocation whose response has not appeared yet (Resp < 0).
type Operation struct {
	ID  OpID
	Op  string
	Arg Value // argument of the invocation
	Ret Value // return value; nil while pending
	Inv int   // index of the invocation symbol in the word
	Res int   // index of the response symbol, or -1 if pending
}

// Pending reports whether the operation has no response in the word.
func (o Operation) Pending() bool { return o.Res < 0 }

// String renders the operation, e.g. "p0#2 read=3 [5,8]" or a pending
// "p1#0 write(7) [2,-]".
func (o Operation) String() string {
	arg := ""
	if o.Arg != nil {
		arg = o.Arg.String()
	}
	if o.Pending() {
		return fmt.Sprintf("%s %s(%s) [%d,-]", o.ID, o.Op, arg, o.Inv)
	}
	return fmt.Sprintf("%s %s(%s)=%s [%d,%d]", o.ID, o.Op, arg, o.Ret, o.Inv, o.Res)
}

// Precedes reports the real-time precedence op ≺ op′ of Section 2: the
// response of o appears before the invocation of p. Pending operations
// precede nothing.
func (o Operation) Precedes(p Operation) bool {
	return !o.Pending() && o.Res < p.Inv
}

// ConcurrentWith reports op || op′: neither precedes the other.
func (o Operation) ConcurrentWith(p Operation) bool {
	return !o.Precedes(p) && !p.Precedes(o)
}

// Operations extracts the operations of a well-formed word, in invocation
// order. Each invocation is matched with the next symbol of the same process,
// which by sequentiality is its response; trailing unmatched invocations are
// returned as pending. It is the caller's responsibility to pass a word that
// satisfies per-process alternation (see WellFormed); Operations panics on
// words that put a response before any invocation of the same process, since
// such input indicates a bug in the experiment driver rather than a property
// to report.
func Operations(w Word) []Operation {
	var ops []Operation
	open := map[int]int{}  // proc -> index into ops of its pending operation
	count := map[int]int{} // proc -> number of operations started
	for i, s := range w {
		switch s.Kind {
		case Inv:
			if _, dup := open[s.Proc]; dup {
				panic(fmt.Sprintf("word: process %d invokes %q at position %d with an operation still pending", s.Proc, s.Op, i))
			}
			ops = append(ops, Operation{
				ID:  OpID{Proc: s.Proc, Idx: count[s.Proc]},
				Op:  s.Op,
				Arg: s.Val,
				Inv: i,
				Res: -1,
			})
			open[s.Proc] = len(ops) - 1
			count[s.Proc]++
		case Res:
			j, ok := open[s.Proc]
			if !ok {
				panic(fmt.Sprintf("word: process %d responds %q at position %d with no pending invocation", s.Proc, s.Op, i))
			}
			if ops[j].Op != s.Op {
				panic(fmt.Sprintf("word: process %d response %q at position %d does not match pending invocation %q", s.Proc, s.Op, i, ops[j].Op))
			}
			ops[j].Ret = s.Val
			ops[j].Res = i
			delete(open, s.Proc)
		default:
			panic(fmt.Sprintf("word: symbol at position %d has invalid kind %d", i, s.Kind))
		}
	}
	return ops
}

// Complete returns the operations of w that have both symbols present.
func Complete(w Word) []Operation {
	var out []Operation
	for _, o := range Operations(w) {
		if !o.Pending() {
			out = append(out, o)
		}
	}
	return out
}

// PendingOps returns the operations of w whose response is missing.
func PendingOps(w Word) []Operation {
	var out []Operation
	for _, o := range Operations(w) {
		if o.Pending() {
			out = append(out, o)
		}
	}
	return out
}
