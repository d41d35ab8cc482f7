package sketch

import (
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

func TestRenderTimeline(t *testing.T) {
	b := trace.NewB()
	b.Op(0, "write", trace.Int(1), trace.Unit{})
	b.Op(1, "read", nil, trace.Int(1))
	out := RenderTimeline(b.Word())
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Errorf("timeline missing process rows:\n%s", out)
	}
	if !strings.Contains(out, "[") || !strings.Contains(out, "]") {
		t.Errorf("timeline missing interval brackets:\n%s", out)
	}
	// Valid UTF-8 with no replacement characters (regression for the
	// byte-indexed render bug).
	if strings.ContainsRune(out, '�') {
		t.Errorf("timeline contains replacement characters:\n%s", out)
	}
}

func TestRenderComparison(t *testing.T) {
	b := trace.NewB()
	b.Op(0, "write", trace.Int(1), trace.Unit{})
	w := b.Word()
	out := RenderComparison(w, w)
	if !strings.Contains(out, "x(E)") || !strings.Contains(out, "x~(E)") {
		t.Errorf("comparison missing headings:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	if out := RenderTimeline(nil); !strings.Contains(out, "empty") {
		t.Errorf("empty render: %q", out)
	}
}
