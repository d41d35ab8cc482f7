// Package trace is the data layer of the runtime-verification pipeline,
// exported for external embedders: concurrent histories (finite prefixes of
// the ω-words of Section 2 of the paper), the sequential object
// specifications they are judged against, the views and sketches of the
// timed-adversary construction (Section 6.1, Appendix B), monitor verdict
// streams, and the JSON-lines wire format that records all of it on disk.
//
// WARNING: this package is experimental and carries no compatibility
// promise; see the README in the exp directory. The internal packages import
// them directly, so there is exactly one implementation, but the exported
// names and signatures may change without notice.
//
// # Histories
//
// A Symbol is one event of a concurrent history: an invocation sent by a
// process to the service under inspection, or a response received from it. A
// Word is a finite sequence of symbols; Operations pairs the matched
// invocation/response events, and WellFormed checks per-process alternation.
// Use the B builder or a Recorder (package exp/monitor) to produce words.
//
// # Sequential specifications
//
// An Object is a deterministic state machine — Register, Counter, Queue,
// Stack, Ledger, Consensus, Vector — against which checkers and monitors
// validate histories. Custom objects implement the Object and State
// interfaces.
//
// # Verdicts and results
//
// A Result is the outcome of one monitored execution: the exhibited history,
// the per-process verdict streams, and the alignment indices relating each
// verdict to the history prefix it judged.
//
// # Wire format
//
// Writer and Read stream executions as JSON lines: one Meta header, then Sym
// and Verdict events in the order they occurred. The encoding round-trips
// byte-deterministically: encode(decode(encode(w))) == encode(w).
package trace
