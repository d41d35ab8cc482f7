// Package lang defines the paper's distributed languages (Definitions
// 2.3–2.9) operationally: for each language, a finite-word safety test (its
// Judge), its real-time obliviousness classification (Definition 5.3), and
// labelled ω-word generators used by the possibility experiments — finite
// runs cannot decide ω-membership, so each source carries ground truth about
// the word it samples.
//
// A Judge is the repository's one answer to "does this finite word violate
// the language's safety condition?". Like the definitions, it tests every
// prefix that ends at a response: a later symbol can repair a violation of
// sequential consistency or EC clause (1), while linearizability and the
// counter clauses are prefix-closed, so their per-prefix answer is the
// whole-word answer.
package lang

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
)

// Lang describes one distributed language.
type Lang struct {
	// Name matches Table 1: LIN_REG, SC_REG, LIN_LED, SC_LED, EC_LED,
	// WEC_COUNT, SEC_COUNT.
	Name string
	// Object is the sequential object underlying the language (the counter
	// for the counter languages, whose definitions are clause-based).
	Object trace.Object
	// Judge is the language's safety test: a word whose prefix it reports
	// falsifies membership, since no continuation is in the language.
	// Liveness clauses (the "eventually" parts of the eventual objects) are
	// not prefix-falsifiable and are covered by source labels instead.
	Judge Judge
	// RealTimeOblivious is the Definition 5.3 classification the paper
	// derives: it determines decidability against A via Theorem 5.2.
	RealTimeOblivious bool
	// Sources returns labelled behaviour generators over n processes.
	// Deterministic in seed.
	Sources func(n int, seed int64) []adversary.Labeled
}

// table is the seven languages of Table 1, in table order, built once: a
// Lang holds only stateless objects and constructors, so every caller can
// share them.
var table = []Lang{LinReg(), SCReg(), LinLed(), SCLed(), ECLed(), WECCount(), SECCount()}

// All returns the seven languages of Table 1, in table order. The slice is
// shared; callers must not modify it.
func All() []Lang { return table }

// ByName returns the language of All named name.
func ByName(name string) (Lang, error) {
	for _, l := range table {
		if l.Name == name {
			return l, nil
		}
	}
	return Lang{}, fmt.Errorf("unknown language %q", name)
}

// LinReg is the linearizable register language (Definition 2.4).
func LinReg() Lang {
	reg := trace.Register()
	return Lang{
		Name:              "LIN_REG",
		Object:            reg,
		Judge:             Judge{Cond: LIN, Object: reg},
		RealTimeOblivious: false,
		Sources:           registerSources(true),
	}
}

// SCReg is the sequentially consistent register language (Definition 2.3).
func SCReg() Lang {
	reg := trace.Register()
	return Lang{
		Name:              "SC_REG",
		Object:            reg,
		Judge:             Judge{Cond: SC, Object: reg},
		RealTimeOblivious: false,
		Sources:           registerSources(false),
	}
}

// LinLed is the linearizable ledger language (Definition 2.6).
func LinLed() Lang {
	led := trace.Ledger()
	return Lang{
		Name:              "LIN_LED",
		Object:            led,
		Judge:             Judge{Cond: LIN, Object: led},
		RealTimeOblivious: false,
		Sources:           ledgerSources(true),
	}
}

// SCLed is the sequentially consistent ledger language (Definition 2.5).
func SCLed() Lang {
	led := trace.Ledger()
	return Lang{
		Name:              "SC_LED",
		Object:            led,
		Judge:             Judge{Cond: SC, Object: led},
		RealTimeOblivious: false,
		Sources:           ledgerSources(false),
	}
}

// ECLed is the eventually consistent ledger language (Definition 2.9). Its
// judge tests clause (1), which like sequential consistency is not
// prefix-closed, on every response-ended prefix in one forward pass of the
// incremental clause-(1) checker.
func ECLed() Lang {
	return Lang{
		Name:              "EC_LED",
		Object:            trace.Ledger(),
		Judge:             Judge{Cond: EC},
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
		Judge:             Judge{Cond: WEC},
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
		Judge:             Judge{Cond: SEC},
		RealTimeOblivious: false, // clause (4) is a real-time constraint
		Sources:           counterSources(true),
	}
}
