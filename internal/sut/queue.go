package sut

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// LockQueue is the correct FIFO queue: a shared item list guarded by a
// spinlock. Queues are the original object for which [17] proved that no
// sound-and-complete asynchronous monitor exists, making them a key system
// under test for the predictive monitors.
type LockQueue struct {
	mu    lock
	items mem.Register[[]int64]
}

// NewLockQueue returns an empty queue.
func NewLockQueue() *LockQueue { return &LockQueue{} }

// Name implements Impl.
func (*LockQueue) Name() string { return "queue/lock" }

// Reset implements Impl: an empty queue with a free lock.
func (q *LockQueue) Reset(int) { *q = LockQueue{} }

// Invoke implements Impl.
func (q *LockQueue) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpEnq:
		q.mu.acquire(p)
		cur := q.items.Read(p)
		next := make([]int64, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = int64(arg.(trace.Int))
		q.items.Write(p, next)
		q.mu.release(p)
		return trace.Unit{}
	case trace.OpDeq:
		q.mu.acquire(p)
		cur := q.items.Read(p)
		if len(cur) == 0 {
			q.mu.release(p)
			return trace.Empty
		}
		head := cur[0]
		q.items.Write(p, append([]int64(nil), cur[1:]...))
		q.mu.release(p)
		return trace.Int(head)
	default:
		panic(fmt.Sprintf("sut: queue does not implement %q", op))
	}
}

// LIFOQueue is a seeded-bug queue that dequeues from the wrong end: it is a
// stack wearing a queue's interface. Order-free monitors catch it as soon as
// two enqueued items come back inverted.
type LIFOQueue struct {
	mu    lock
	items mem.Register[[]int64]
}

// NewLIFOQueue returns an empty wrong-ended queue.
func NewLIFOQueue() *LIFOQueue { return &LIFOQueue{} }

// Name implements Impl.
func (*LIFOQueue) Name() string { return "queue/lifo-bug" }

// Reset implements Impl.
func (q *LIFOQueue) Reset(int) { *q = LIFOQueue{} }

// Invoke implements Impl.
func (q *LIFOQueue) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpEnq:
		q.mu.acquire(p)
		cur := q.items.Read(p)
		next := make([]int64, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = int64(arg.(trace.Int))
		q.items.Write(p, next)
		q.mu.release(p)
		return trace.Unit{}
	case trace.OpDeq:
		q.mu.acquire(p)
		cur := q.items.Read(p)
		if len(cur) == 0 {
			q.mu.release(p)
			return trace.Empty
		}
		tail := cur[len(cur)-1] // bug: LIFO pop
		q.items.Write(p, append([]int64(nil), cur[:len(cur)-1]...))
		q.mu.release(p)
		return trace.Int(tail)
	default:
		panic(fmt.Sprintf("sut: queue does not implement %q", op))
	}
}

// LockStack is the correct LIFO stack, the second object of [17]'s
// impossibility result.
type LockStack struct {
	mu    lock
	items mem.Register[[]int64]
}

// NewLockStack returns an empty stack.
func NewLockStack() *LockStack { return &LockStack{} }

// Name implements Impl.
func (*LockStack) Name() string { return "stack/lock" }

// Reset implements Impl.
func (s *LockStack) Reset(int) { *s = LockStack{} }

// Invoke implements Impl.
func (s *LockStack) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpPush:
		s.mu.acquire(p)
		cur := s.items.Read(p)
		next := make([]int64, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = int64(arg.(trace.Int))
		s.items.Write(p, next)
		s.mu.release(p)
		return trace.Unit{}
	case trace.OpPop:
		s.mu.acquire(p)
		cur := s.items.Read(p)
		if len(cur) == 0 {
			s.mu.release(p)
			return trace.Empty
		}
		top := cur[len(cur)-1]
		s.items.Write(p, append([]int64(nil), cur[:len(cur)-1]...))
		s.mu.release(p)
		return trace.Int(top)
	default:
		panic(fmt.Sprintf("sut: stack does not implement %q", op))
	}
}

// FIFOStack is the stack counterpart of LIFOQueue: a seeded-bug stack that
// pops from the bottom — a queue wearing a stack's interface. Like the
// wrong-ended queue, two pushed items coming back in push order expose it to
// any order-sensitive monitor.
type FIFOStack struct {
	mu    lock
	items mem.Register[[]int64]
}

// NewFIFOStack returns an empty wrong-ended stack.
func NewFIFOStack() *FIFOStack { return &FIFOStack{} }

// Name implements Impl.
func (*FIFOStack) Name() string { return "stack/fifo-bug" }

// Reset implements Impl.
func (s *FIFOStack) Reset(int) { *s = FIFOStack{} }

// Invoke implements Impl.
func (s *FIFOStack) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpPush:
		s.mu.acquire(p)
		cur := s.items.Read(p)
		next := make([]int64, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = int64(arg.(trace.Int))
		s.items.Write(p, next)
		s.mu.release(p)
		return trace.Unit{}
	case trace.OpPop:
		s.mu.acquire(p)
		cur := s.items.Read(p)
		if len(cur) == 0 {
			s.mu.release(p)
			return trace.Empty
		}
		bottom := cur[0] // bug: FIFO pop
		s.items.Write(p, append([]int64(nil), cur[1:]...))
		s.mu.release(p)
		return trace.Int(bottom)
	default:
		panic(fmt.Sprintf("sut: stack does not implement %q", op))
	}
}
