package monitor_test

import (
	"fmt"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// ExampleRecorder instruments a workload by hand: Invoke/Respond bracket
// each operation, and overlapping brackets record concurrency.
func ExampleRecorder() {
	rec := monitor.NewRecorder(2)
	rec.Invoke(0, "enq", trace.Int(7)) // p0 starts enq(7)
	rec.Invoke(1, "deq", nil)          // p1's deq overlaps it
	rec.Respond(0, trace.Unit{})       // enq returns
	rec.Respond(1, trace.Int(7))       // deq returns 7
	fmt.Println(rec.History())
	// Output:
	// <0:enq(7) <1:deq() >0:enq=() >1:deq=7
}

// ExampleRecorder_Record brackets each operation's body in one call; a body
// that panics leaves its operation pending, as a crashed process would.
func ExampleRecorder_Record() {
	rec := monitor.NewRecorder(2)
	rec.Record(0, "enq", trace.Int(7), func() trace.Value { return trace.Unit{} })
	func() {
		defer func() { recover() }()
		rec.Record(1, "deq", nil, func() trace.Value { panic("crash") })
	}()
	fmt.Println(rec.History())
	// Output:
	// <0:enq(7) >0:enq=() <1:deq()
}

// ExampleSession_Run replays a recorded queue history through the Figure-8
// predictive linearizability monitor.
func ExampleSession_Run() {
	rec := monitor.NewRecorder(3)
	rec.Record(0, "enq", trace.Int(1), func() trace.Value { return trace.Unit{} })
	rec.Record(1, "enq", trace.Int(2), func() trace.Value { return trace.Unit{} })
	rec.Record(2, "deq", nil, func() trace.Value { return trace.Int(1) })

	s := monitor.NewSession()
	defer s.Close()
	res, err := s.Run(monitor.Config{
		N:       3,
		Object:  trace.Queue(),
		Logic:   monitor.LogicLin,
		History: rec.History(),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for p, vs := range res.Verdicts {
		fmt.Printf("p%d: %v\n", p, vs)
	}
	fmt.Println("NO reports:", res.TotalNO())
	// Output:
	// p0: [YES]
	// p1: [YES]
	// p2: [YES]
	// NO reports: 0
}

// ExampleSeqConsistent judges a recorded history itself with the offline
// oracles: the read starts after the write returned and still sees the
// register's initial 0, so the history is sequentially consistent (the read
// may be ordered first) but not linearizable.
func ExampleSeqConsistent() {
	w := trace.NewB().
		Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
		Op(1, trace.OpRead, nil, trace.Int(0)).
		Word()
	sc, _ := monitor.SeqConsistent(trace.Register(), w)
	lin, _ := monitor.Linearizable(trace.Register(), w)
	fmt.Println("sequentially consistent:", sc)
	fmt.Println("linearizable:", lin)
	// Output:
	// sequentially consistent: true
	// linearizable: false
}
