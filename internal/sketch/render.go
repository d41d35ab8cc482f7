// Package sketch renders the timelines of Figure 7: an execution's input
// word x(E) drawn above its sketch x~(E), the history Appendix B rebuilds
// from the views a timed adversary Aτ attaches to responses, so that the
// "shrinking" of operations is visible. The sketch itself is built by
// exp/trace's BuildSketch and SketchBuilder.
package sketch

import (
	"fmt"
	"strings"

	"github.com/drv-go/drv/exp/trace"
)

// RenderTimeline draws a word as per-process interval diagrams in the style
// of Figure 7: one row per process, each operation spanning its invocation
// and response positions, with a legend listing the operations.
func RenderTimeline(w trace.Word) string {
	n := w.Procs()
	if n == 0 {
		return "(empty history)\n"
	}
	width := len(w)
	rows := make([][]rune, n)
	for i := range rows {
		rows[i] = []rune(strings.Repeat("·", width))
	}
	ops := trace.Operations(w)
	for _, o := range ops {
		row := rows[o.ID.Proc]
		end := o.Res
		pending := o.Pending()
		if pending {
			end = width - 1
		}
		for c := o.Inv; c <= end && c < width; c++ {
			row[c] = '='
		}
		row[o.Inv] = '['
		if !pending {
			row[o.Res] = ']'
		}
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d %s\n", i, string(rows[i]))
	}
	b.WriteString("ops:\n")
	for _, o := range ops {
		fmt.Fprintf(&b, "  %s\n", o)
	}
	return b.String()
}

// RenderComparison draws an execution's input word x(E) above its sketch
// x~(E), making the "shrinking" of operations visible — the exact content of
// Figure 7.
func RenderComparison(input, sk trace.Word) string {
	var b strings.Builder
	b.WriteString("x(E)  — input word as emitted by Aτ:\n")
	b.WriteString(RenderTimeline(input))
	b.WriteString("\nx~(E) — sketch reconstructed from views (operations may shrink):\n")
	b.WriteString(RenderTimeline(sk))
	return b.String()
}
