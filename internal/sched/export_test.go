package sched

// RoundTrips returns the coroutine round trips of rt's current execution.
func (rt *Runtime) RoundTrips() int { return rt.trips }

// Tally returns the round trips, runnability re-reads, re-reads that changed
// nothing, and steps summed over every execution that has ended, by Reset or
// Stop, in any runtime of the process.
func Tally() (trips, rereads, noops, steps int64) {
	return tally.trips.Load(), tally.rereads.Load(), tally.noops.Load(), tally.steps.Load()
}
