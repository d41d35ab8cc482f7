package monitor

import "github.com/drv-go/drv/internal/check"

// scratch is a session's reusable logic state: the checker pool, the rows
// and chains of the triple boards, and per process index the buffers its
// logics fill round by round. Monitor.New builds fresh logics for every run; Session.Run then
// attaches each of them to the scratch, so the buffers a logic grows stay
// with the session and the next run's logics start from their capacity.
type scratch struct {
	checks *check.Pool
	boards slots[boardRows]
	procs  []procScratch
}

// procScratch is one process index's buffers.
type procScratch struct {
	ints slots[[]int]
}

// slots holds a session's reusable values of one type, claimed in order
// during each run: the k-th claim of a run gets the value the k-th claims of
// earlier runs grew. A claimed value is the claimer's alone until the next
// run, and holds whatever the last run left in it.
type slots[T any] struct {
	vals []*T
	used int
}

// claim returns the run's next value.
func (s *slots[T]) claim() *T {
	if s.used == len(s.vals) {
		s.vals = append(s.vals, new(T))
	}
	s.used++
	return s.vals[s.used-1]
}

// rewind returns every claimed value for the next run.
func (s *slots[T]) rewind() { s.used = 0 }

// rewind prepares the scratch for a run of n processes: every buffer is
// unclaimed and every checker reclaimed.
func (sc *scratch) rewind(n int) {
	sc.checks.Reclaim()
	sc.boards.rewind()
	if len(sc.procs) < n {
		sc.procs = append(sc.procs, make([]procScratch, n-len(sc.procs))...)
	}
	for i := range sc.procs {
		sc.procs[i].ints.rewind()
	}
}

// attacher is implemented by logics that keep their run state in the
// session's scratch. Session.Run attaches each logic it built, and every
// logic a Wrapper wraps, before the run's first step; i is the logic's
// process index.
type attacher interface {
	attach(sc *scratch, i int)
}

// Wrapper is implemented by a logic that wraps another: Session.Run reaches
// the wrapped logic through Unwrap to attach it to the session's scratch. A
// wrapping logic must implement it, or the logic it wraps never gets its
// state.
type Wrapper interface {
	Unwrap() Logic
}

// attachAll attaches the logics of one run, and the logics they wrap, to sc.
func attachAll(logics []Logic, sc *scratch) {
	for i, l := range logics {
		for l != nil {
			if a, ok := l.(attacher); ok {
				a.attach(sc, i)
			}
			w, ok := l.(Wrapper)
			if !ok {
				break
			}
			l = w.Unwrap()
		}
	}
}
