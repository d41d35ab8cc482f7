// Package startheap gives a short batch command a large first heap, the way
// the Go compiler does (cmd/compile/internal/base.AdjustStartingHeap). The
// runtime's first heap goal is 4 MB, so a run that allocates a few dozen MB
// and keeps little of it collects several times for nothing. drvtable and
// drvexplore call Adjust first thing in main; drvserve is long-lived and
// stays on the runtime's defaults, and in-process callers never call it.
package startheap

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// limit is the heap a run may grow to before its first collection.
const limit = 64 << 20

// sentinel is the garbage whose finalizer notices the first collection. It
// holds a pointer, so the tiny allocator, whose objects may never be
// finalized, does not place it.
type sentinel struct{ _ *byte }

// Adjust turns the collector off under a 64 MiB soft memory limit until the
// first collection, then restores GOGC=100 and no memory limit. A run whose
// heap stays under the limit never collects; a longer one collects once at
// the limit and continues on the defaults. It does nothing when GOGC or
// GOMEMLIMIT is set in the environment, so either still decides.
func Adjust() {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return
	}
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(limit)
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		debug.SetGCPercent(100)
		debug.SetMemoryLimit(math.MaxInt64)
	})
}
