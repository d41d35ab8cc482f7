// Package lang defines the paper's distributed languages (Definitions
// 2.3–2.9) operationally: for each language, a finite-prefix safety test, its
// real-time obliviousness classification (Definition 5.3), and labelled
// ω-word generators used by the possibility experiments — finite runs cannot
// decide ω-membership, so each source carries ground truth about the word it
// samples.
package lang

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
)

// Lang describes one distributed language.
type Lang struct {
	// Name matches Table 1: LIN_REG, SC_REG, LIN_LED, SC_LED, EC_LED,
	// WEC_COUNT, SEC_COUNT.
	Name string
	// Object is the sequential object underlying the language, when there is
	// one (nil for the counter languages, whose definitions are clause-based).
	Object trace.Object
	// SafetyViolated reports that the finite prefix already falsifies
	// membership: no continuation of w is in the language. Liveness clauses
	// (the "eventually" parts of the eventual objects) are not prefix-
	// falsifiable and are covered by source labels instead.
	SafetyViolated func(w trace.Word) bool
	// RealTimeOblivious is the Definition 5.3 classification the paper
	// derives: it determines decidability against A via Theorem 5.2.
	RealTimeOblivious bool
	// Checker, when non-nil, states that SafetyViolated is exactly the
	// witness-search consistency condition over Object described by its
	// fields, so callers that check many prefixes of one history may run it
	// through an incremental checker instead of the closed-over functions.
	Checker *ObjectChecker
	// Sources returns labelled behaviour generators over n processes.
	// Deterministic in seed.
	Sources func(n int, seed int64) []adversary.Labeled
}

// All returns the seven languages of Table 1, in table order.
func All() []Lang {
	return []Lang{
		LinReg(), SCReg(), LinLed(), SCLed(), ECLed(), WECCount(), SECCount(),
	}
}

// ObjectChecker maps a language's safety test onto the witness-search
// checkers of package check: SafetyViolated(w) equals, for RealTime,
// !Linearizable(Object, w), and otherwise the sequential-consistency
// checker's AnyPrefixViolated(w). Sequential consistency is not
// prefix-closed — a later symbol can repair a whole-word check (e.g. a read
// of r before write(r) is even invoked) — so the definitions that quantify
// over every finite prefix (Definitions 2.3 and 2.5) test each prefix ending
// at a response, in one forward pass of check.Incremental. Linearizability
// is prefix-closed, so LIN languages test the word directly. The
// equivalences are pinned by this package's and the explorer's
// differential tests.
type ObjectChecker struct {
	// RealTime selects linearizability; false selects sequential consistency.
	RealTime bool
	// PerPrefix marks the non-prefix-closed conditions, which quantify the
	// violation test over every response-ended prefix.
	PerPrefix bool
}

// LinReg is the linearizable register language (Definition 2.4).
func LinReg() Lang {
	reg := trace.Register()
	return Lang{
		Name:              "LIN_REG",
		Object:            reg,
		SafetyViolated:    func(w trace.Word) bool { return !check.Linearizable(reg, w) },
		RealTimeOblivious: false,
		Checker:           &ObjectChecker{RealTime: true},
		Sources:           registerSources(true),
	}
}

// SCReg is the sequentially consistent register language (Definition 2.3).
func SCReg() Lang {
	reg := trace.Register()
	return Lang{
		Name:              "SC_REG",
		Object:            reg,
		SafetyViolated:    func(w trace.Word) bool { return check.NewIncremental(reg, false, w.Procs()).AnyPrefixViolated(w) },
		RealTimeOblivious: false,
		Checker:           &ObjectChecker{PerPrefix: true},
		Sources:           registerSources(false),
	}
}

// LinLed is the linearizable ledger language (Definition 2.6).
func LinLed() Lang {
	led := trace.Ledger()
	return Lang{
		Name:              "LIN_LED",
		Object:            led,
		SafetyViolated:    func(w trace.Word) bool { return !check.Linearizable(led, w) },
		RealTimeOblivious: false,
		Checker:           &ObjectChecker{RealTime: true},
		Sources:           ledgerSources(true),
	}
}

// SCLed is the sequentially consistent ledger language (Definition 2.5).
func SCLed() Lang {
	led := trace.Ledger()
	return Lang{
		Name:              "SC_LED",
		Object:            led,
		SafetyViolated:    func(w trace.Word) bool { return check.NewIncremental(led, false, w.Procs()).AnyPrefixViolated(w) },
		RealTimeOblivious: false,
		Checker:           &ObjectChecker{PerPrefix: true},
		Sources:           ledgerSources(false),
	}
}

// ECLed is the eventually consistent ledger language (Definition 2.9). Its
// clause (1), like sequential consistency, is not prefix-closed, so its
// safety test asks whether any response-ended prefix violates
// check.ECLedgerSafety, in one forward pass of the incremental clause-(1)
// checker.
func ECLed() Lang {
	return Lang{
		Name:              "EC_LED",
		Object:            trace.Ledger(),
		SafetyViolated:    func(w trace.Word) bool { return check.NewECLedger().AnyPrefixViolated(w) },
		RealTimeOblivious: false, // Appendix A
		Sources:           ecLedgerSources,
	}
}

// WECCount is the weakly-eventual consistent counter language (Definition
// 2.7).
func WECCount() Lang {
	return Lang{
		Name:              "WEC_COUNT",
		Object:            trace.Counter(),
		SafetyViolated:    func(w trace.Word) bool { return check.WECSafety(w) != nil },
		RealTimeOblivious: true, // noted after Definition 5.3
		Sources:           counterSources(false),
	}
}

// SECCount is the strongly-eventual consistent counter language (Definition
// 2.8).
func SECCount() Lang {
	return Lang{
		Name:              "SEC_COUNT",
		Object:            trace.Counter(),
		SafetyViolated:    func(w trace.Word) bool { return check.SECSafety(w) != nil },
		RealTimeOblivious: false, // clause (4) is a real-time constraint
		Sources:           counterSources(true),
	}
}
