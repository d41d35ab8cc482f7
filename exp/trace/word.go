package trace

import (
	"fmt"
	"strings"
)

// Kind distinguishes invocation symbols (Σ<) from response symbols (Σ>).
type Kind uint8

const (
	// Inv marks a symbol of the invocation alphabet Σ< of a process.
	Inv Kind = iota + 1
	// Res marks a symbol of the response alphabet Σ> of a process.
	Res
)

// String returns "inv" or "res".
func (k Kind) String() string {
	switch k {
	case Inv:
		return "inv"
	case Res:
		return "res"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is the payload carried by a symbol: the argument of an invocation or
// the return value of a response. The paper's alphabets are possibly
// infinite, so values are structured rather than enumerated.
type Value interface {
	// String renders the value; it doubles as the canonical encoding used
	// for equality-sensitive hashing by the checkers.
	String() string
	// Equal reports whether the value equals another value.
	Equal(Value) bool
}

// Unit is the value of operations that return or take nothing, such as the
// response of write, inc and append.
type Unit struct{}

// String implements Value.
func (Unit) String() string { return "()" }

// Equal implements Value.
func (Unit) Equal(v Value) bool { _, ok := v.(Unit); return ok }

// Int is an integer value: register contents, counter readings.
type Int int64

// String implements Value.
func (i Int) String() string { return fmt.Sprintf("%d", int64(i)) }

// Equal implements Value.
func (i Int) Equal(v Value) bool { j, ok := v.(Int); return ok && i == j }

// Rec is a ledger record from the universe U of appendable records.
type Rec string

// String implements Value.
func (r Rec) String() string { return string(r) }

// Equal implements Value.
func (r Rec) Equal(v Value) bool { s, ok := v.(Rec); return ok && r == s }

// Seq is a finite sequence of ledger records, the return value of get().
type Seq []Rec

// String implements Value.
func (s Seq) String() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = string(r)
	}
	return "[" + strings.Join(parts, "·") + "]"
}

// Equal implements Value.
func (s Seq) Equal(v Value) bool {
	t, ok := v.(Seq)
	if !ok || len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the sequence that shares no storage with s.
func (s Seq) Clone() Seq {
	t := make(Seq, len(s))
	copy(t, s)
	return t
}

// Symbol is a single event of a concurrent history. Proc identifies the local
// alphabet Σ_i the symbol belongs to (0-based; the paper indexes from 1), Op
// names the object operation the symbol is an invocation of or response to,
// and Val carries the argument or return value.
type Symbol struct {
	Proc int
	Kind Kind
	Op   string
	Val  Value
}

// NewInv builds an invocation symbol.
func NewInv(proc int, op string, arg Value) Symbol {
	return Symbol{Proc: proc, Kind: Inv, Op: op, Val: arg}
}

// NewRes builds a response symbol.
func NewRes(proc int, op string, ret Value) Symbol {
	return Symbol{Proc: proc, Kind: Res, Op: op, Val: ret}
}

// String renders the symbol in a compact form mirroring the paper's <ᵛᵢ / >ʷᵢ
// notation, e.g. "<1:write(3)" and ">1:write()".
func (s Symbol) String() string {
	mark := "<"
	if s.Kind == Res {
		mark = ">"
	}
	val := ""
	if s.Val != nil {
		val = s.Val.String()
	}
	if s.Kind == Inv {
		return fmt.Sprintf("%s%d:%s(%s)", mark, s.Proc, s.Op, val)
	}
	return fmt.Sprintf("%s%d:%s=%s", mark, s.Proc, s.Op, val)
}

// Equal reports whether two symbols are identical events (same process, kind,
// operation and payload).
func (s Symbol) Equal(t Symbol) bool {
	if s.Proc != t.Proc || s.Kind != t.Kind || s.Op != t.Op {
		return false
	}
	if s.Val == nil || t.Val == nil {
		return s.Val == nil && t.Val == nil
	}
	return s.Val.Equal(t.Val)
}

// Word is a finite sequence of symbols: a finite prefix of an ω-word over a
// distributed alphabet.
type Word []Symbol

// Clone returns a copy of the word sharing no top-level storage with w.
func (w Word) Clone() Word {
	c := make(Word, len(w))
	copy(c, w)
	return c
}

// Equal reports whether two words are symbol-wise identical.
func (w Word) Equal(v Word) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if !w[i].Equal(v[i]) {
			return false
		}
	}
	return true
}

// String renders the word as a space-separated symbol sequence.
func (w Word) String() string {
	parts := make([]string, len(w))
	for i, s := range w {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Project returns the local word w|i: the subsequence of symbols of process i.
func (w Word) Project(proc int) Word {
	var out Word
	for _, s := range w {
		if s.Proc == proc {
			out = append(out, s)
		}
	}
	return out
}

// Procs returns one plus the largest process index mentioned in the word, i.e.
// the least n such that the word is over an n-process distributed alphabet.
func (w Word) Procs() int {
	n := 0
	for _, s := range w {
		if s.Proc+1 > n {
			n = s.Proc + 1
		}
	}
	return n
}

// B is a fluent builder for words used heavily in tests and in scripted
// adversaries: B().Inv(0,"write",Int(1)).Res(0,"write",Unit{}).Word().
type B struct {
	w Word
}

// NewB returns an empty word builder.
func NewB() *B { return &B{} }

// Inv appends an invocation symbol and returns the builder.
func (b *B) Inv(proc int, op string, arg Value) *B {
	b.w = append(b.w, NewInv(proc, op, arg))
	return b
}

// Res appends a response symbol and returns the builder.
func (b *B) Res(proc int, op string, ret Value) *B {
	b.w = append(b.w, NewRes(proc, op, ret))
	return b
}

// Op appends a complete operation (invocation immediately followed by its
// response) and returns the builder.
func (b *B) Op(proc int, op string, arg, ret Value) *B {
	return b.Inv(proc, op, arg).Res(proc, op, ret)
}

// Word returns the built word.
func (b *B) Word() Word { return b.w }

// Reset empties the builder for reuse, keeping its buffer: a word returned
// by an earlier Word call is overwritten by the next appends.
func (b *B) Reset() { b.w = b.w[:0] }
