// Package drv is an executable reproduction of "Asynchronous Fault-Tolerant
// Language Decidability for Runtime Verification of Distributed Systems"
// (Castañeda & Rodríguez, PODC 2025, arXiv:2502.00191): a framework for
// distributed runtime verification in asynchronous, crash-prone,
// shared-memory systems, together with the paper's monitors, adversaries,
// decidability notions, and every possibility and impossibility result of
// its Table 1 as machine-checked experiments.
//
// The library is organized bottom-up:
//
//   - internal/sched — the asynchronous computation model: crash-prone
//     processes as coroutines under a deterministic cooperative scheduler.
//     A process that ends its step makes the next scheduling choice itself
//     and resumes the chosen process directly, so a hand-over between
//     processes is one coroutine switch, not a round trip through the
//     caller.
//   - internal/mem — the shared-memory substrate: atomic registers, arrays,
//     snapshots (one-step and the AADGMS wait-free protocol), collects,
//     compare&swap and consensus.
//   - exp/trace, internal/check, internal/lang — the distributed-language
//     machinery of Section 2: alphabets, ω-word prefixes, sequential
//     objects, consistency checkers, and the seven Table 1 languages with
//     labelled behaviour generators. Verdict-stream
//     workloads use check.Incremental, which re-checks each growing prefix
//     of one history by caching the last accepting linearization as a
//     witness path (extended in constant time on most appends) plus
//     standing rejecting verdicts, falling back to a memoized residual
//     search only when neither cache applies. A history whose last few
//     symbols changed is rewound to the first changed symbol, not re-fed.
//     The search first resumes, under a node budget, from the deepest node
//     of the refuted path that the refuted operation can still reach, then
//     searches from the root in the last witness's order, so a refuted
//     witness is usually re-found within a few nodes and the verdict is the
//     from-scratch front search's; differential tests pin it
//     symbol-for-symbol to the from-scratch checkers. On queues, stacks and
//     ledgers the search also returns at any node whose unplaced operations
//     no reachable state can answer (say, more complete dequeues of a value
//     than items of it left to leave), a necessary condition for a witness,
//     so no verdict moves and the searches that prove NO stay short. check.ECLedger is the eventual ledger's counterpart for
//     clause (1), which is order-free: an append multiset that only grows
//     and a longest returned sequence that only extends, so each symbol
//     costs only itself; check.Counter does the same for the eventual
//     counters' clauses, each of which judges one read at its response.
//   - internal/lang's Judge — the one test of a finite word that Table 1,
//     the explorer and drvmon ask: like the definitions, it reports the
//     first prefix ending at a response that violates the language's
//     safety condition, in one forward pass.
//   - internal/adversary — the adversary A (a word cursor realizing Claim
//     3.1) and the timed adversary Aτ of Figure 6.
//   - exp/trace's SketchBuilder — the view-to-history construction x~(E) of
//     Appendix B, built incrementally: a round's new triples are merged into
//     the kept sorted keys and only the view groups from the first one they
//     touch are re-emitted, with the length of the kept prefix reported to
//     the checker. internal/sketch draws x(E) and x~(E) as the timelines of
//     Figure 7.
//   - internal/monitor — the generic Figure 1 monitor loop, the stability
//     transformations of Figures 2–4, and the concrete monitors of Figures
//     5, 8 and 9, plus baselines (order-free, consensus-powered, 3-valued).
//     The shared triple board of Figures 8 and 9 hands each process only
//     the triples it has not collected yet, so a round costs its new input:
//     V_O extends its sketch and checker, and the order-free logics (the
//     EC_LED candidate and the naive-order baseline) feed the new triples
//     to a check.ECLedger or a sequential-consistency check.Incremental.
//   - internal/core — the decidability notions SD, WD, PSD, PWD and the
//     real-time obliviousness characterization of Theorem 5.2, with the
//     shuffle operator of Definition 5.2 it ranges over.
//   - internal/experiment — the proofs as executable constructions: the
//     Lemma 5.1 swap, the prefix-extension attacks of Lemmas 5.2/6.2, the
//     Theorem 5.2 shuffle walk, the Lemma 6.5 alternation attack, and the
//     complete Table 1 harness.
//   - internal/sut — real object implementations (correct and seeded-bug)
//     monitored end to end; internal/msgnet and internal/abd port the stack
//     to message passing via the ABD register emulation. Replicas are
//     served only by abd.Servers aux actors, one per process, and a client
//     waiting for its quorum parks on msgnet.Net.RecvAwait.
//   - internal/explore — the scenario explorer: seeded random schedules,
//     crash schedules and adversary behaviours run through the real
//     monitors, with every verdict stream differentially checked against
//     the ground-truth oracles; divergences shrink to one-line seed specs.
//     A sweep is byte-deterministic in the master seed and independent of
//     the worker count. A second scenario family (drvexplore -family obj,
//     the drv2 seed-spec grammar; drv1 specs still parse) explores the real
//     internal/sut implementations under random workloads and crashes
//     through Aτ and the Figure 8 monitor, splitting oracle outcomes into
//     divergences (guaranteed properties violated) and shrunk bug findings
//     (seeded bugs exposed). A third family (drvexplore -family msg, the
//     drv3 grammar) is the object family plus a network: objects emulated
//     over message passing — the internal/abd register, counter and
//     consensus walks — run down the same object-scenario path, whose one
//     message-passing step arms internal/msgnet under seeded delivery
//     orders (-net fifo/lifo/random/starve) and message loss (drop=) and
//     registers the replica servers as aux actors. The emulated object's
//     history is judged by the same oracles, and bug reproducers also
//     shrink along the loss-schedule axis.
//
// The stable core — histories, sequential specifications, sketches, the
// trace wire format and the monitors — is exported under exp/trace and
// exp/monitor (experimental, no compatibility promise — see
// exp/README.md): external programs wrap a monitor.Recorder around their
// own concurrent data structures and replay the recorded history through
// the paper's monitors. The internal packages import the exported
// definitions directly, so there is exactly one implementation; the
// exported API is locked by exp/testdata/api.golden.
//
// The cmd directory holds the reproduction tools (drvtable, drvtrace,
// drvmon, drvsketch, drvexplore) and drvserve, the monitoring-as-a-service
// front end: internal/serve accepts recorded histories as NDJSON trace
// streams over a versioned request envelope, replays each stream through a
// monitor session while its events arrive, and streams each verdict back as
// soon as it is final, with bounded queues end to end and graceful drain on
// shutdown; served verdict streams are byte-identical across runs however
// the input is paced, pinned by goldens under cmd/drvserve/testdata. examples
// holds six runnable walkthroughs, including examples/extsut, an outside
// consumer that monitors queues of its own using only the exp surface (and
// records them to trace files with -trace, ready to stream to drvserve). The root test
// files regenerate every table and figure of the paper, and bench/run.sh
// times every workload end to end and per layer.
//
// Table 1 runs on a parallel experiment engine (internal/experiment.Run):
// the table decomposes into independent units — one per (seed, labelled
// source) possibility run, judged for every cell that shares it, and one
// per impossibility construction — that fan out onto a bounded worker pool with deterministic, order-stable
// result folding, so drvtable -j N prints a byte-identical table for every
// worker count. drvtable and drvexplore start with the collector off under a
// 64 MiB soft memory limit (internal/startheap, called from their main
// only), so a run whose heap stays under it never collects; GOGC or
// GOMEMLIMIT in the environment overrides it. See README.md for the module
// setup, the short/full/race test tiers, and parallel usage.
//
// All workloads share one pooled execution core. internal/sched.Runtime is
// resettable (Runtime.Reset reuses Proc structs and parked coroutines; the
// steady-state Step loop and pooled per-execution setup are zero-alloc),
// internal/monitor.Session drives the Figure-1 loop on a pooled runtime with
// reusable pre-sized Result buffers (monitor.Run is the one-shot wrapper),
// and the experiment engine and the explorer give each worker one
// runtime+session pair for its whole batch. The SUT substrate pools the same
// way: every sut.Impl (and every internal/abd emulation) satisfies a
// Reset(n) contract — construction parameters survive, run state does not —
// so a pooled explore.Runner keeps one live instance per implementation per
// worker plus one reusable workload, service, timed adversary and message
// network (msgnet.Schedule.Reset re-arms order, inboxes and loss in place),
// with steady-state per-scenario allocations pinned by AllocsPerRun budget
// tests. Every scenario runs down one path: a zero-value explore.Runner
// opens a session and a substrate for its one Execute call, so it differs
// from a pooled runner only in how long they live. Reuse is byte-identical
// to first use (tested per registered implementation, seeded-bug variants
// included, and scenario by scenario against a zero-value explore.Runner);
// -cpuprofile profiles either command, and -stage-stats on drvexplore adds
// an opt-in per-family generate/execute/monitor/check wall-time and
// allocation breakdown to the report.
package drv
