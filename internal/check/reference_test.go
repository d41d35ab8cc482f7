package check

import (
	"strings"

	"github.com/drv-go/drv/exp/trace"
)

// The generic subset search: the independent reference the witness search
// is tested against on histories too large for the brute-force enumeration.
// It shares no code with the package's search: its state is an arbitrary
// placed-operation bitmask, eligibility comes from explicit precedence edges,
// and the memo is a string-keyed map.

// precedenceEdges computes, for each operation, the indices of operations
// that must be linearized before it: real-time predecessors when realTime is
// set (which subsumes process order), otherwise same-process predecessors
// only.
func precedenceEdges(ops []trace.Operation, realTime bool) [][]int {
	prec := make([][]int, len(ops))
	for i, oi := range ops {
		for j, oj := range ops {
			if i == j {
				continue
			}
			if realTime {
				if oj.Precedes(oi) {
					prec[i] = append(prec[i], j)
				}
			} else if oj.ID.Proc == oi.ID.Proc && oj.ID.Idx < oi.ID.Idx {
				prec[i] = append(prec[i], j)
			}
		}
	}
	return prec
}

// validOrder runs the memoized search for a sequential witness. An operation
// is eligible once all operations in prec[i] are already placed; complete
// operations must reproduce their recorded response, pending operations adopt
// the specification's response or are dropped. Acceptance requires all
// complete operations placed.
func validOrder(obj trace.Object, ops []trace.Operation, prec [][]int) bool {
	n := len(ops)
	if n == 0 {
		return true
	}
	done := make([]bool, n)
	completeLeft := 0
	for _, o := range ops {
		if !o.Pending() {
			completeLeft++
		}
	}
	// memo records (placed-set, state) pairs already proven fruitless.
	memo := map[string]bool{}
	maskBuf := make([]byte, (n+7)/8)

	maskKey := func(stateKey string) string {
		for i := range maskBuf {
			maskBuf[i] = 0
		}
		for i, d := range done {
			if d {
				maskBuf[i/8] |= 1 << (i % 8)
			}
		}
		var b strings.Builder
		b.Grow(len(maskBuf) + 1 + len(stateKey))
		b.Write(maskBuf)
		b.WriteByte('/')
		b.WriteString(stateKey)
		return b.String()
	}

	var rec func(st trace.State) bool
	rec = func(st trace.State) bool {
		if completeLeft == 0 {
			return true // remaining pending operations are dropped
		}
		key := maskKey(string(st.AppendKey(nil)))
		if memo[key] {
			return false
		}
	next:
		for i := range ops {
			if done[i] {
				continue
			}
			for _, j := range prec[i] {
				if !done[j] {
					continue next
				}
			}
			o := &ops[i]
			nxt, ret, ok := st.Apply(o.Op, o.Arg)
			if !ok {
				continue
			}
			if !o.Pending() && !ret.Equal(o.Ret) {
				continue
			}
			done[i] = true
			if !o.Pending() {
				completeLeft--
			}
			if rec(nxt) {
				return true
			}
			done[i] = false
			if !o.Pending() {
				completeLeft++
			}
		}
		memo[key] = true
		return false
	}
	return rec(obj.Init())
}

// genericOK is the generic search's verdict on ops: linearizability when
// realTime is set, sequential consistency otherwise.
func genericOK(obj trace.Object, ops []trace.Operation, realTime bool) bool {
	return validOrder(obj, ops, precedenceEdges(ops, realTime))
}
