// Package monitor exports the distributed monitors of the paper for external
// embedders: the Figure-8 predictive linearizability monitor V_O and its
// sequential-consistency variant, the Figure-5 weak decider for WEC_COUNT,
// the Figure-9 predictive-weak decider for SEC_COUNT, and the best-effort
// eventually-consistent-ledger monitor — attached to a recorded history of
// any concurrent object, including ones defined outside this module.
//
// WARNING: this package is experimental and carries no compatibility
// promise; see the README in the exp directory.
//
// # Embedding workflow
//
// Wrap a Recorder around your own concurrent data structure: call Invoke
// before each operation starts and Respond when it returns, from any
// goroutine. The Recorder serializes those events into a well-formed
// concurrent history (a trace.Word). Then replay the history through the
// monitor of your choice:
//
//	rec := monitor.NewRecorder(3)
//	// ... instrumented workload runs concurrently ...
//	res, err := monitor.Run(monitor.Config{
//		N:       3,
//		Object:  trace.Queue(),
//		Logic:   monitor.LogicLin,
//		History: rec.History(),
//	})
//
// The replay drives the paper's machinery end to end: a word-cursor
// adversary (Claim 3.1) hands each process its recorded operations in order,
// the timed adversary Aτ (Figure 6) attaches views to responses, and N
// monitor processes run the generic algorithm of Figure 1, reporting the
// verdict stream collected in the Result. Replay is deterministic: the same
// history yields a byte-identical Result.
//
// Result.History is Aτ's outer word, the history the monitors observe. Each
// process's projection of it is the recorded one, but symbols of different
// processes may be interleaved differently, and the verdicts judge this
// exhibited history. Aτ's operations contain the recorded ones (Lemma 6.1),
// so a linearizable recorded history exhibits a linearizable one, and a NO
// from LogicLin refutes the recorded history too. A YES certifies nothing
// about the recorded history: it may violate the condition where the
// exhibited one does not. Linearizable and SeqConsistent judge the recorded
// history itself.
//
// # Streaming replay
//
// Session.Stream replays a history that is still arriving: the caller
// supplies events through a function that blocks until the next one exists,
// and receives each verdict as the run reports it. The replay makes the
// scheduling choices Run makes for the same history, however the events are
// paced, so it reports exactly Run's verdicts; Run is Stream fed the
// recorded history. Both check the history event by event, the one check a
// replayed history gets: a history that is not a well-formed word over
// processes 0..N-1 fails with an error naming its first bad event, and no
// verdict is reported after it. A process's verdict can be reported once the replay has
// pulled the events the run needed so far (Result.PulledAt); its verdict
// stream is complete only when the history ends.
//
// Workloads monitoring many histories should hold a Session and reuse it —
// the session pools the scheduler runtime and checker state, making the
// steady state allocation-free.
package monitor
