package msgnet

import "testing"

// TestDropChecksAgree pins the one loss-schedule check: ParseDrops on a
// list's canonical text and Validate on the list accept and reject the same
// lists.
func TestDropChecksAgree(t *testing.T) {
	seq := make([]int, MaxScheduleDrops+1)
	for i := range seq {
		seq[i] = i
	}
	for _, tc := range []struct {
		drops []int
		ok    bool
	}{
		{[]int{0}, true},
		{[]int{3, 17}, true},
		{seq[:MaxScheduleDrops], true},
		{[]int{MaxScheduleDropIdx}, true},
		{seq, false},
		{[]int{5, 5}, false},
		{[]int{7, 3}, false},
		{[]int{-1}, false},
		{[]int{MaxScheduleDropIdx + 1}, false},
	} {
		list := FormatDrops(tc.drops)
		_, perr := ParseDrops(list)
		verr := Schedule{Order: OrderFIFO, Drops: tc.drops}.Validate()
		if (perr == nil) != tc.ok || (verr == nil) != tc.ok {
			t.Errorf("drops %q: ParseDrops error %v, Validate error %v; want accepted=%v", list, perr, verr, tc.ok)
		}
	}
	// Only text can be non-canonical, so only ParseDrops sees these.
	for _, list := range []string{"03", "+3", "3,", "", " 3"} {
		if _, err := ParseDrops(list); err == nil {
			t.Errorf("ParseDrops accepted non-canonical %q", list)
		}
	}
}
