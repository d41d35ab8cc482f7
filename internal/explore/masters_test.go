package explore

import (
	"reflect"
	"testing"

	"github.com/drv-go/drv/internal/check"
)

// residualMasters are the scenarios whose witness searches once exhausted
// memory: the queue master (1.1 GB and about 8.9 million search nodes
// before dead-state pruning), the lossy-ledger master (0.85 GB, about 10.7
// million) and the correct lock ledger, whose V_O search ran out of memory
// under a 3 GB cap. Each must replay to its recorded outcome within
// maxMasterNodes search nodes.
var residualMasters = []struct {
	spec   string
	digest string
	bugs   []Divergence
}{
	{
		spec:   "drv2:obj/queue/lifo:n=4:seed=4519351159678422886:pol=bursty:steps=333:ops=8:mb=0.7:crash=3@293",
		digest: "55e011907acc42e9",
		bugs: []Divergence{
			{Check: "lin", Detail: "history of queue/lifo is not linearizable"},
			{Check: "sc", Detail: "history is not sequentially consistent"},
		},
	},
	{
		spec:   "drv2:obj/ledger/lossy:n=4:seed=2519686400982000010:pol=random:steps=400:ops=5:mb=0.8",
		digest: "86459ee0ca125cfe",
		bugs:   []Divergence{{Check: "lin", Detail: "history of ledger/lossy is not linearizable"}},
	},
	{
		spec:   "drv2:obj/ledger/lock:n=4:seed=8300693997388994183:pol=random:steps=1507:ops=10:mb=0.8:crash=0@536",
		digest: "dfcd3bc63cd66583",
	},
}

// maxMasterNodes bounds the search nodes one master's replay may visit.
const maxMasterNodes = 10_000

// TestResidualSearchMasters replays each residual-search master and checks
// its digest, its oracle findings, that nothing diverges, and that its
// searches stay within maxMasterNodes nodes.
func TestResidualSearchMasters(t *testing.T) {
	for _, m := range residualMasters {
		s, err := ParseSpec(m.spec)
		if err != nil {
			t.Fatal(err)
		}
		before := check.SearchNodes()
		out, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		nodes := check.SearchNodes() - before
		t.Logf("%s: %d search nodes", m.spec, nodes)
		if out.Digest != m.digest {
			t.Errorf("%s: digest %s, want %s", m.spec, out.Digest, m.digest)
		}
		if !reflect.DeepEqual(out.OracleFailures, m.bugs) {
			t.Errorf("%s: oracle failures %v, want %v", m.spec, out.OracleFailures, m.bugs)
		}
		if len(out.Divergences) > 0 {
			t.Errorf("%s: divergences %v", m.spec, out.Divergences)
		}
		if nodes > maxMasterNodes {
			t.Errorf("%s: %d search nodes, more than %d", m.spec, nodes, maxMasterNodes)
		}
	}
}
