// Package spec keeps the three names of the sequential object
// specifications that bench/probe.go still imports: Object, Queue and
// Register. The specifications live in exp/trace, and every other package
// of this module imports them from there.
//
// The benchmark module is changed separately from the code it measures, so
// this package stays until bench/probe.go imports exp/trace; then it goes.
package spec

import (
	"github.com/drv-go/drv/exp/trace"
)

// Object is a sequential object: a name, an initial state, and an operation
// signature set.
type Object = trace.Object

var (
	// Register returns the sequential read/write register of Example 1.
	Register = trace.Register
	// Queue returns the sequential FIFO queue.
	Queue = trace.Queue
)
