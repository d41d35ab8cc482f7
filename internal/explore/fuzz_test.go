package explore

// Fuzzing the seed-spec wire format: every accepted line must re-render to a
// canonical form that parses back to itself (the corpus, replay and shrink
// machinery all round-trip specs through String), the canonical form must
// carry the version-minimal tag, and re-parsing must be idempotent. The
// committed corpus under testdata/fuzz seeds both families plus the
// historically tricky shapes (legacy two-decimal biases, crash schedules,
// duplicate-field near-misses).

import (
	"strings"
	"testing"
)

func FuzzParseSpecRoundTrip(f *testing.F) {
	for _, seed := range []string{
		// Language family, the drv1 grammar.
		"drv1:WEC_COUNT/exact:n=3:seed=7:pol=random:steps=2600",
		"drv1:LIN_REG/atomic:n=3:seed=7:pol=bursty:steps=500:crash=1@120",
		"drv1:SEC_COUNT/over-read:n=2:seed=7:pol=biased/0.60:steps=2100",
		"drv1:SC_LED/lost-append:n=4:seed=5:pol=biased/0.333:steps=400:crash=0@50,1@100,2@300",
		// Object family, the drv2 grammar.
		"drv2:obj/queue/lifo:n=2:seed=7:pol=random:steps=900:ops=4:mb=0.5",
		"drv2:obj/register/split:n=3:seed=9:pol=bursty:steps=700:ops=4:mb=0.25:crash=1@120",
		"drv2:obj/ledger/snapshot:n=3:seed=5:pol=biased/0.7:steps=1200:ops=8:mb=0.8",
		// Message-passing family, the drv3 grammar.
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=fifo",
		"drv3:msg/register/nowriteback:n=3:seed=61:pol=random:steps=3000:ops=4:mb=0.3:net=lifo",
		"drv3:msg/counter/lost:n=3:seed=9:pol=bursty:steps=2400:ops=3:mb=0.5:net=random:drop=3,4,5:crash=1@120",
		"drv3:msg/consensus/echo:n=4:seed=5:pol=biased/0.45:steps=1800:ops=2:mb=0.6:net=starve",
		// Near-misses the parser must keep rejecting.
		"drv1:obj/queue/lifo:n=2:seed=7:pol=random:steps=900:ops=4:mb=0.5",
		"drv2:obj/queue/lifo:n=2:seed=7:pol=random:steps=900",
		"drv0:WEC_COUNT/exact:n=3:seed=7:pol=random:steps=2600",
		"drv1:WEC_COUNT/exact:n=3:n=4:seed=1:pol=random:steps=10",
		"drv2:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=fifo",
		"drv2:obj/queue/lifo:n=2:seed=7:pol=random:steps=900:ops=4:mb=0.5:net=fifo",
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5",
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=lifo:drop=9,3",
		// Loss-schedule near-misses: a repeated index, a decreasing pair, a
		// non-canonical index, one entry past the length cap, and an index
		// past the range cap.
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=random:drop=5,5",
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=random:drop=7,3",
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=fifo:drop=03",
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=fifo:drop=0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=starve:drop=1048577",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseSpec(line)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		re := s.String()
		s2, err := ParseSpec(re)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", re, line, err)
		}
		if again := s2.String(); again != re {
			t.Fatalf("String is not idempotent: %q -> %q -> %q", line, re, again)
		}
		// The canonical form carries the version-minimal tag per family.
		switch s.Fam() {
		case FamMsg:
			if !strings.HasPrefix(re, specVersion+":"+FamMsg+"/") {
				t.Fatalf("message spec %q did not canonicalize to the %s grammar: %q", line, specVersion, re)
			}
		case FamObj:
			if !strings.HasPrefix(re, objSpecVersion+":"+FamObj+"/") {
				t.Fatalf("object spec %q did not canonicalize to the %s grammar: %q", line, objSpecVersion, re)
			}
		default:
			if !strings.HasPrefix(re, legacySpecVersion+":") {
				t.Fatalf("language spec %q did not canonicalize to the %s tag: %q", line, legacySpecVersion, re)
			}
		}
		// An accepted spec is an executable spec: validate must agree with
		// the parser on both the original and the round-tripped value.
		if err := s.validate(); err != nil {
			t.Fatalf("ParseSpec accepted %q but validate rejects it: %v", line, err)
		}
		// Mutating the version tag must reject: the tag gates the grammar.
		for _, tag := range []string{"drv0", "drv4", "xrv1"} {
			if _, err := ParseSpec(tag + re[strings.Index(re, ":"):]); err == nil {
				t.Fatalf("mutated version tag %q accepted on %q", tag, re)
			}
		}
	})
}
