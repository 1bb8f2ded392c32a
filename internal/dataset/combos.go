package dataset

import "fmt"

// Combination is one train/validation/test partition of the measurement
// sets (paper Table 2). Set ids are 1-based.
type Combination struct {
	Number   int
	Training []int
	Val      int
	Test     int
}

// Combinations reproduces the paper's Table 2 exactly: fifteen
// leave-sets-out partitions giving every measurement set one turn as the
// test set (cross-validation over takes).
var Combinations = []Combination{
	{1, []int{1, 2, 3, 4, 5, 7, 9, 10, 11, 12, 13, 14, 15}, 6, 8},
	{2, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14}, 11, 15},
	{3, []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 15}, 14, 9},
	{4, []int{1, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 5, 2},
	{5, []int{1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15}, 12, 4},
	{6, []int{2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15}, 10, 1},
	{7, []int{1, 2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 14, 15}, 9, 6},
	{8, []int{1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15}, 13, 3},
	{9, []int{1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14, 15}, 8, 5},
	{10, []int{1, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15}, 4, 7},
	{11, []int{1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15}, 3, 10},
	{12, []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 15}, 7, 11},
	{13, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15}, 13, 12},
	{14, []int{1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15}, 2, 13},
	{15, []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15}, 1, 14},
}

// CombinationsFor adapts Table 2 to a campaign with the given number of
// sets. A full 15-set campaign uses the paper's combinations verbatim;
// smaller campaigns synthesize the same leave-sets-out rotation (test set i,
// validation set i+1 cyclically, all remaining sets for training). Returns
// at most max entries (0 = all).
func CombinationsFor(sets, max int) []Combination {
	var out []Combination
	if sets >= len(Combinations) {
		out = append(out, Combinations...)
	} else {
		if sets < 3 {
			return nil // need at least train + val + test
		}
		for i := 1; i <= sets; i++ {
			val := i%sets + 1
			var train []int
			for s := 1; s <= sets; s++ {
				if s != i && s != val {
					train = append(train, s)
				}
			}
			out = append(out, Combination{Number: i, Training: train, Val: val, Test: i})
		}
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Validate checks a combination against a campaign.
func (cb Combination) Validate(c *Campaign) error {
	check := func(id int) error {
		if id < 1 || id > len(c.Sets) {
			return fmt.Errorf("dataset: combination %d references set %d, campaign has %d",
				cb.Number, id, len(c.Sets))
		}
		return nil
	}
	for _, s := range cb.Training {
		if err := check(s); err != nil {
			return err
		}
		if s == cb.Val || s == cb.Test {
			return fmt.Errorf("dataset: combination %d reuses set %d across partitions", cb.Number, s)
		}
	}
	if err := check(cb.Val); err != nil {
		return err
	}
	if err := check(cb.Test); err != nil {
		return err
	}
	if cb.Val == cb.Test {
		return fmt.Errorf("dataset: combination %d has val == test", cb.Number)
	}
	return nil
}

// TrainingPackets returns the packets of all training sets, in set order.
func (c *Campaign) TrainingPackets(cb Combination) []*Packet {
	var out []*Packet
	for _, id := range cb.Training {
		set := &c.Sets[id-1]
		for i := range set.Packets {
			out = append(out, &set.Packets[i])
		}
	}
	return out
}

// ValPackets returns the validation set packets.
func (c *Campaign) ValPackets(cb Combination) []*Packet {
	set := &c.Sets[cb.Val-1]
	out := make([]*Packet, len(set.Packets))
	for i := range set.Packets {
		out[i] = &set.Packets[i]
	}
	return out
}

// TestPackets returns the test set packets in time order.
func (c *Campaign) TestPackets(cb Combination) []*Packet {
	set := &c.Sets[cb.Test-1]
	out := make([]*Packet, len(set.Packets))
	for i := range set.Packets {
		out[i] = &set.Packets[i]
	}
	return out
}
