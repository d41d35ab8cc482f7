package sched

// RoundTrips returns the coroutine round trips of rt's current execution.
func (rt *Runtime) RoundTrips() int { return rt.trips }

// Tally returns the round trips and steps summed over every execution that
// has ended, by Reset or Stop, in any runtime of the process.
func Tally() (trips, steps int64) { return tally.trips.Load(), tally.steps.Load() }
