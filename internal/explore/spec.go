package explore

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/msgnet"
)

// Spec wire-format versions. drv3 is the current grammar: it adds the
// message-passing family (a "msg/<object>/<impl>" head plus the net= and
// drop= network-schedule fields) on top of drv2, which added the
// object-execution family (an "obj/<object>/<impl>" head plus the ops= and
// mb= workload fields) on top of the drv1 language-scenario grammar. The
// grammars are cumulative — drv3 accepts every drv1 and drv2 construct — and
// the encoder is version-minimal: a spec expressible in an older grammar
// renders with that grammar's tag, so every pre-drv3 corpus line and report
// stays byte stable; message-passing specs require — and render with — the
// drv3 tag. ParseSpec accepts all three tags, but rejects newer-grammar
// constructs under an older tag, so a stale tool that knows only the older
// grammar fails loudly instead of replaying a different execution.
const (
	specVersion       = "drv3"
	objSpecVersion    = "drv2"
	legacySpecVersion = "drv1"
)

// Scenario families. The family decides what a scenario executes: a Table 1
// language source through its paper monitor (FamLang), or a real concurrent
// object implementation (package sut) under a random workload through the
// Figure 8 predictive monitor (FamObj).
const (
	// FamLang is the language-scenario family of PRs 2–4. It is the zero
	// value: Spec.Family == "" means FamLang, which keeps every stored drv1
	// spec and its JSON rendering unchanged.
	FamLang = "lang"
	// FamObj is the object-execution family: Spec.Object/Impl name a sut
	// implementation, Spec.OpsPerProc/MutBias shape its random workload.
	FamObj = "obj"
	// FamMsg is the message-passing family: Spec.Object/Impl name an
	// emulated object over internal/msgnet (ABD registers and the snapshot-
	// counter and consensus walks built on them), Spec.NetOrder/Drops pick
	// the deterministic message delivery-and-loss schedule, and the workload
	// fields mean what they mean for FamObj.
	FamMsg = "msg"
)

// Fam returns the scenario family, resolving the empty legacy value to
// FamLang.
func (s Spec) Fam() string {
	if s.Family == "" {
		return FamLang
	}
	return s.Family
}

// Policy kinds a scenario can schedule under. All are seeded from the spec;
// see Spec.policy.
const (
	// PolBiased is sched.Biased toward the adversary cursor.
	PolBiased = "biased"
	// PolRandom is sched.Random, uniform over runnable actors.
	PolRandom = "random"
	// PolBursty is sched.BurstyFrom: geometric bursts of one actor.
	PolBursty = "bursty"
	// PolCursor is sched.Prioritize(cursor) over a random fallback: the
	// most synchronous schedule, the Claim 3.1 shape.
	PolCursor = "cursor"
)

// Crash schedules one process crash: at scheduler step Step, process Proc
// stops being scheduled and its remaining events drop out of the exhibited
// word.
type Crash struct {
	Step int `json:"step"`
	Proc int `json:"proc"`
}

// Spec fully determines one scenario: what runs (a labelled language source,
// or an object implementation under a random workload), the process count,
// the scheduling policy and its seed, the step bound, and the crash
// schedule. Specs serialize to a one-line string (String/ParseSpec) used as
// the replay and corpus format.
type Spec struct {
	// Family is the scenario family: "" or FamLang for language scenarios,
	// FamObj for object executions.
	Family string `json:"family,omitempty"`
	// Lang is the Table 1 language name (e.g. "WEC_COUNT"); FamLang only.
	Lang string `json:"lang,omitempty"`
	// Source is the labelled source name within the language (e.g. "exact");
	// FamLang only.
	Source string `json:"source,omitempty"`
	// Object is the sequential object name (e.g. "queue"); FamObj only.
	Object string `json:"object,omitempty"`
	// Impl is the implementation slug within the object (e.g. "lifo");
	// FamObj only.
	Impl string `json:"impl,omitempty"`
	// N is the monitor process count.
	N int `json:"n"`
	// Seed drives the source generators or the workload and (via independent
	// streams) the scheduling policy.
	Seed int64 `json:"seed"`
	// Policy is one of the Pol* kinds.
	Policy string `json:"policy"`
	// Bias is the cursor bias for PolBiased (ignored otherwise).
	Bias float64 `json:"bias,omitempty"`
	// Steps bounds the scheduler.
	Steps int `json:"steps"`
	// OpsPerProc is each process's workload budget; FamObj only.
	OpsPerProc int `json:"ops,omitempty"`
	// MutBias weights mutating operations in the random workload; FamObj
	// only.
	MutBias float64 `json:"mut_bias,omitempty"`
	// NetOrder is the message delivery-order kind (msgnet.OrderFIFO etc.);
	// the order's seed, where one is needed, derives from Seed. FamMsg only.
	NetOrder string `json:"net,omitempty"`
	// Drops is the deterministic message-loss schedule: global send indices
	// the network discards, strictly increasing. FamMsg only.
	Drops []int `json:"drops,omitempty"`
	// Crashes is the crash schedule, in increasing step order.
	Crashes []Crash `json:"crashes,omitempty"`
}

// maxOpsPerProc bounds an object workload; generation draws far below it,
// a hand-written spec may go up to it, and anything above is a mis-pasted
// spec.
const maxOpsPerProc = 64

// String renders the one-line seed spec, e.g.
//
//	drv1:WEC_COUNT/exact:n=3:seed=42:pol=biased/0.5:steps=2400:crash=1@120,0@300
//	drv2:obj/queue/lifo:n=3:seed=42:pol=random:steps=900:ops=5:mb=0.5:crash=1@120
//	drv3:msg/register/abd:n=3:seed=42:pol=random:steps=2000:ops=4:mb=0.3:net=lifo:drop=3,4,5:crash=1@120
//
// The encoding is version-minimal: language specs render with the drv1 tag
// and object specs with drv2 (so pre-drv3 corpora replay and dedup
// byte-for-byte); message-passing specs need the drv3 grammar and render with
// its tag.
func (s Spec) String() string {
	var b strings.Builder
	switch s.Fam() {
	case FamMsg:
		fmt.Fprintf(&b, "%s:%s/%s/%s", specVersion, FamMsg, s.Object, s.Impl)
	case FamObj:
		fmt.Fprintf(&b, "%s:%s/%s/%s", objSpecVersion, FamObj, s.Object, s.Impl)
	default:
		fmt.Fprintf(&b, "%s:%s/%s", legacySpecVersion, s.Lang, s.Source)
	}
	fmt.Fprintf(&b, ":n=%d:seed=%d:pol=%s", s.N, s.Seed, s.Policy)
	if s.Policy == PolBiased {
		// 'g'/-1 renders the shortest decimal that parses back to exactly
		// this float64, so String↔ParseSpec is exact for every bias (the
		// old %.2f encoding forced biases onto a hundredths grid); old
		// two-decimal specs still parse.
		b.WriteByte('/')
		b.WriteString(strconv.FormatFloat(s.Bias, 'g', -1, 64))
	}
	fmt.Fprintf(&b, ":steps=%d", s.Steps)
	if s.Fam() == FamObj || s.Fam() == FamMsg {
		fmt.Fprintf(&b, ":ops=%d:mb=%s", s.OpsPerProc, strconv.FormatFloat(s.MutBias, 'g', -1, 64))
	}
	if s.Fam() == FamMsg {
		fmt.Fprintf(&b, ":net=%s", s.NetOrder)
		if len(s.Drops) > 0 {
			fmt.Fprintf(&b, ":drop=%s", msgnet.FormatDrops(s.Drops))
		}
	}
	if len(s.Crashes) > 0 {
		b.WriteString(":crash=")
		for i, c := range s.Crashes {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d@%d", c.Proc, c.Step)
		}
	}
	return b.String()
}

// ParseSpec parses the String encoding back into a Spec. All three version
// tags are accepted; newer-grammar constructs (the object family and workload
// fields under drv1, the message-passing family and network fields under
// drv1/drv2) are rejected under older tags.
func ParseSpec(in string) (Spec, error) {
	var s Spec
	fields := strings.Split(strings.TrimSpace(in), ":")
	var grammar int
	if len(fields) >= 2 {
		switch fields[0] {
		case legacySpecVersion:
			grammar = 1
		case objSpecVersion:
			grammar = 2
		case specVersion:
			grammar = 3
		}
	}
	if grammar == 0 {
		return s, fmt.Errorf("explore: spec %q does not start with %q, %q or %q", in, specVersion, objSpecVersion, legacySpecVersion)
	}
	head := strings.Split(fields[1], "/")
	switch {
	case head[0] == FamObj || head[0] == FamMsg:
		fam := head[0]
		need := 2
		if fam == FamMsg {
			need = 3
		}
		if grammar < need {
			return s, fmt.Errorf("explore: spec %q uses the %s family under the %s tag (needs drv%d)", in, fam, fields[0], need)
		}
		if len(head) != 3 || head[1] == "" || head[2] == "" {
			return s, fmt.Errorf("explore: spec %q lacks a %s/object/impl head", in, fam)
		}
		s.Family, s.Object, s.Impl = fam, head[1], head[2]
	case len(head) == 2 && head[0] != "" && head[1] != "":
		s.Lang, s.Source = head[0], head[1]
	default:
		return s, fmt.Errorf("explore: spec %q lacks a lang/source field", in)
	}
	seen := map[string]bool{}
	for _, f := range fields[2:] {
		kv := strings.SplitN(f, "=", 2)
		if len(kv) != 2 {
			return s, fmt.Errorf("explore: malformed spec field %q", f)
		}
		if seen[kv[0]] {
			// A duplicate field would silently overwrite the first value and
			// replay a different execution than the spec's author saw.
			return s, fmt.Errorf("explore: duplicate spec field %q", kv[0])
		}
		seen[kv[0]] = true
		var err error
		switch kv[0] {
		case "n":
			s.N, err = strconv.Atoi(kv[1])
		case "seed":
			s.Seed, err = strconv.ParseInt(kv[1], 10, 64)
		case "pol":
			pol := strings.SplitN(kv[1], "/", 2)
			s.Policy = pol[0]
			if len(pol) == 2 {
				s.Bias, err = strconv.ParseFloat(pol[1], 64)
			}
		case "steps":
			s.Steps, err = strconv.Atoi(kv[1])
		case "ops":
			if grammar < 2 {
				return s, fmt.Errorf("explore: spec field %q needs the %s grammar", f, objSpecVersion)
			}
			s.OpsPerProc, err = strconv.Atoi(kv[1])
		case "mb":
			if grammar < 2 {
				return s, fmt.Errorf("explore: spec field %q needs the %s grammar", f, objSpecVersion)
			}
			s.MutBias, err = strconv.ParseFloat(kv[1], 64)
		case "net":
			if grammar < 3 {
				return s, fmt.Errorf("explore: spec field %q needs the %s grammar", f, specVersion)
			}
			s.NetOrder = kv[1]
		case "drop":
			if grammar < 3 {
				return s, fmt.Errorf("explore: spec field %q needs the %s grammar", f, specVersion)
			}
			s.Drops, err = msgnet.ParseDrops(kv[1])
		case "crash":
			for _, part := range strings.Split(kv[1], ",") {
				var c Crash
				// Sscanf stops at trailing garbage without erroring;
				// re-render and compare so a mis-pasted spec is rejected
				// instead of silently replaying a different execution.
				if _, err = fmt.Sscanf(part, "%d@%d", &c.Proc, &c.Step); err != nil ||
					fmt.Sprintf("%d@%d", c.Proc, c.Step) != part {
					return s, fmt.Errorf("explore: malformed crash %q", part)
				}
				s.Crashes = append(s.Crashes, c)
			}
		default:
			err = fmt.Errorf("unknown key %q", kv[0])
		}
		if err != nil {
			return s, fmt.Errorf("explore: spec field %q: %w", f, err)
		}
	}
	return s, s.validate()
}

// validate rejects specs that cannot execute.
func (s Spec) validate() error {
	switch {
	case s.Fam() != FamLang && s.Fam() != FamObj && s.Fam() != FamMsg:
		return fmt.Errorf("explore: unknown scenario family %q", s.Family)
	case s.N < 1:
		return fmt.Errorf("explore: spec needs n ≥ 1, got %d", s.N)
	case s.Steps < 1:
		return fmt.Errorf("explore: spec needs steps ≥ 1, got %d", s.Steps)
	case s.Steps > monitor.DefaultMaxSteps:
		// The runner hands Steps straight to the monitor runner; bounding it
		// by the runner's own default keeps mis-pasted specs from demanding
		// effectively unbounded executions.
		return fmt.Errorf("explore: spec steps %d exceed monitor.DefaultMaxSteps (%d)", s.Steps, monitor.DefaultMaxSteps)
	case s.Policy != PolBiased && s.Policy != PolRandom && s.Policy != PolBursty && s.Policy != PolCursor:
		return fmt.Errorf("explore: unknown policy %q", s.Policy)
	case s.Policy != PolBiased && s.Bias != 0:
		return fmt.Errorf("explore: policy %q does not take a bias", s.Policy)
	}
	// Negated-range form so NaN (which fails every comparison) is rejected
	// too — ParseFloat accepts "NaN" and a NaN bias would silently degenerate
	// the biased policy.
	if s.Policy == PolBiased && !(s.Bias >= 0 && s.Bias <= 1) {
		return fmt.Errorf("explore: bias %v outside [0,1]", s.Bias)
	}
	if err := s.validateFamily(); err != nil {
		return err
	}
	for i, c := range s.Crashes {
		if c.Proc < 0 || c.Proc >= s.N {
			return fmt.Errorf("explore: crash names process %d of %d", c.Proc, s.N)
		}
		// The runner consults the crash schedule at steps 0..Steps−1; a
		// crash at step ≥ Steps would never fire yet still demote the
		// scenario to the weaker crash-run oracle set.
		if c.Step < 1 || c.Step >= s.Steps {
			return fmt.Errorf("explore: crash step %d outside [1,%d]", c.Step, s.Steps-1)
		}
		// The schedule must be in the canonical step-then-process order the
		// generator emits (ties broken by process), with each
		// process crashing at most once — an out-of-order or duplicated
		// schedule would make two spec strings name one execution.
		if i > 0 {
			prev := s.Crashes[i-1]
			if c.Step < prev.Step || (c.Step == prev.Step && c.Proc <= prev.Proc) {
				return fmt.Errorf("explore: crash schedule not in canonical step-then-process order at %d@%d", c.Proc, c.Step)
			}
		}
		for _, earlier := range s.Crashes[:i] {
			if earlier.Proc == c.Proc {
				return fmt.Errorf("explore: process %d crashes twice", c.Proc)
			}
		}
	}
	return nil
}

// validateFamily checks the family-specific half of the spec: language
// scenarios must not carry workload or network fields, object and
// message-passing scenarios must name a known implementation and a sane
// workload, and only message-passing scenarios may (and must) carry a network
// schedule.
func (s Spec) validateFamily() error {
	if s.Fam() == FamLang {
		switch {
		case s.Object != "" || s.Impl != "":
			return fmt.Errorf("explore: language spec carries object fields %q/%q", s.Object, s.Impl)
		case s.OpsPerProc != 0 || s.MutBias != 0:
			return fmt.Errorf("explore: language spec carries workload fields ops=%d mb=%v", s.OpsPerProc, s.MutBias)
		case s.NetOrder != "" || len(s.Drops) > 0:
			return fmt.Errorf("explore: language spec carries network fields net=%q drop=%v", s.NetOrder, s.Drops)
		}
		return nil
	}
	switch {
	case s.Lang != "" || s.Source != "":
		return fmt.Errorf("explore: %s spec carries language fields %q/%q", s.Fam(), s.Lang, s.Source)
	case s.OpsPerProc < 1 || s.OpsPerProc > maxOpsPerProc:
		return fmt.Errorf("explore: %s spec needs ops in [1,%d], got %d", s.Fam(), maxOpsPerProc, s.OpsPerProc)
	}
	// Negated-range form for the same NaN reason as the policy bias.
	if !(s.MutBias >= 0 && s.MutBias <= 1) {
		return fmt.Errorf("explore: workload mutate bias %v outside [0,1]", s.MutBias)
	}
	if s.Fam() == FamObj {
		if s.NetOrder != "" || len(s.Drops) > 0 {
			return fmt.Errorf("explore: object spec carries network fields net=%q drop=%v", s.NetOrder, s.Drops)
		}
	} else if err := (msgnet.Schedule{Order: s.NetOrder, Drops: s.Drops}).Validate(); err != nil {
		// The network schedule validates through the msgnet codec itself, so
		// the spec grammar and the schedule grammar cannot drift apart. The
		// order's seed derives from Seed at execution time; 0 stands in for
		// it here.
		return err
	}
	_, _, err := implByName(s.Fam(), s.Object, s.Impl)
	return err
}

// mix derives an independent 64-bit stream from two seeds via one splitmix64
// round — the scenario-index and policy sub-seeds must not correlate with
// the raw master seed handed to the source generators.
func mix(a, b int64) int64 {
	z := uint64(a) + 0x9E3779B97F4A7C15*uint64(b+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
