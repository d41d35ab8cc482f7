package msgnet

import (
	"fmt"
	"strconv"
	"strings"
)

// Delivery-order kinds a Schedule can name.
const (
	OrderFIFO   = "fifo"
	OrderLIFO   = "lifo"
	OrderRandom = "random"
	OrderStarve = "starve"
)

// Schedule bounds, shared by ParseDrops and Validate so every spec-carried
// loss schedule parses back.
const (
	// MaxScheduleDrops caps the loss schedule's length.
	MaxScheduleDrops = 16
	// MaxScheduleDropIdx caps each dropped send index.
	MaxScheduleDropIdx = 1 << 20
)

// Schedule is a deterministic network schedule: a delivery-order kind, the
// seed driving it (unused by fifo), and an optional loss schedule of global
// send indices to drop. A Schedule plus a process count fully determines the
// network's behaviour, which is what lets the explorer treat message delay,
// reorder and loss as one replayable spec axis.
type Schedule struct {
	Order string
	Seed  int64
	Drops []int
}

// ParseDrops parses a comma-separated loss schedule ("3,17"): strictly
// increasing canonical decimal send indices within the schedule bounds. It is
// the explorer's drv3 spec grammar for the drop= field.
func ParseDrops(list string) ([]int, error) {
	parts := strings.Split(list, ",")
	drops := make([]int, 0, len(parts))
	for _, part := range parts {
		k, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("msgnet: bad drop index %q: %v", part, err)
		}
		if canon := strconv.Itoa(k); canon != part {
			return nil, fmt.Errorf("msgnet: non-canonical drop index %q", part)
		}
		drops = append(drops, k)
	}
	if err := checkDrops(drops); err != nil {
		return nil, err
	}
	return drops, nil
}

// checkDrops is the one loss-schedule check ParseDrops and Validate share: at
// most MaxScheduleDrops strictly increasing send indices in
// [0, MaxScheduleDropIdx].
func checkDrops(drops []int) error {
	if len(drops) > MaxScheduleDrops {
		return fmt.Errorf("msgnet: %d drops exceed the maximum %d", len(drops), MaxScheduleDrops)
	}
	prev := -1
	for _, k := range drops {
		if k < 0 || k > MaxScheduleDropIdx {
			return fmt.Errorf("msgnet: drop index %d out of range [0,%d]", k, MaxScheduleDropIdx)
		}
		if k <= prev {
			return fmt.Errorf("msgnet: drop indices must be strictly increasing, got %d after %d", k, prev)
		}
		prev = k
	}
	return nil
}

// FormatDrops renders a loss schedule the way ParseDrops reads it.
func FormatDrops(drops []int) string {
	parts := make([]string, len(drops))
	for i, k := range drops {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
}

// Validate checks the schedule without building a network.
func (s Schedule) Validate() error {
	switch s.Order {
	case OrderFIFO, OrderLIFO, OrderRandom, OrderStarve:
	default:
		return fmt.Errorf("msgnet: unknown delivery order %q", s.Order)
	}
	return checkDrops(s.Drops)
}

// Reset arms nt for this schedule and n processes, reusing its buffers — and,
// when the network's current order has the same kind, the order object itself
// (seeded orders are reseeded in place, which reproduces exactly the delivery
// sequence a fresh order yields). A zero Net is armed from scratch, so
// Reset(new(Net), n) builds the scheduled network. The starve order starves
// process 0 (the explorer's cursor-like victim) over a seeded random inner
// order.
func (s Schedule) Reset(nt *Net, n int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	order := nt.order
	if nt.orderKind != s.Order {
		switch s.Order {
		case OrderFIFO:
			order = FIFOOrder()
		case OrderLIFO:
			order = LIFOOrder()
		case OrderRandom:
			order = RandomOrder(s.Seed)
		case OrderStarve:
			order = StarveOrder(0, RandomOrder(s.Seed))
		}
	} else if r, ok := order.(reseeder); ok {
		r.reseed(s.Seed)
	}
	nt.Reset(n, order)
	nt.orderKind = s.Order
	nt.SetDrops(s.Drops)
	return nil
}
